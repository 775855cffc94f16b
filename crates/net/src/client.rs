//! [`RemoteBroker`] — the client side of the wire protocol, implementing
//! the same [`Broker`] trait as the in-process brokers so every runtime
//! (scheduler, sharded engines) is oblivious to the network.
//!
//! Three properties matter:
//!
//! * **Push, not poll.** EVENTS frames are fed straight into the local
//!   [`Subscription`]'s queue and wake it — once per frame, and only if
//!   it was idle ([`Subscription::set_waker`]) — so the scheduler drives
//!   remote subscriptions exactly like local ones: zero polling end to
//!   end.
//! * **Reconnect with replay.** When the connection drops, the reactor
//!   redials and re-subscribes every live subscription. A subscription
//!   that has seen offsets resumes with [`SubscribeMode::FromOffset`] at the lowest unseen offset; the
//!   per-partition offset filter then drops whatever the replay
//!   re-delivers, so consumers observe an exactly-once stream across
//!   connection loss.
//! * **Sends ride out outages.** Publishes and requests made while the
//!   connection is down stay queued for the redial (the wait is bounded
//!   by the request timeout, and by [`RECONNECT_GRACE`] on a full
//!   pipeline window) instead of failing — an agent mid-workflow never
//!   silently loses a result message to a severed connection.
//!
//! ## Pipelined publish
//!
//! [`Broker::publish`] is the blocking path: one round trip per
//! message, its receipt — the daemon's RECEIPT_LIST of one — returned
//! to the caller.
//! [`Broker::publish_many_nowait`] is the hot path, and the only place
//! a pipelined publish is queued ([`Broker::publish_nowait`] is the
//! batch of one): the batch's PUBLISH frames are encoded into one
//! buffer and handed to the connection in one step — one lock of the
//! waiter table, one append to the FIFO, one doorbell ring, however
//! many items — and the call returns; the reactor loop consumes the
//! receipts asynchronously, releasing bytes from the in-flight window
//! ([`PIPELINE_WINDOW_BYTES`]). An agent turn that publishes a status
//! update and thirty results wakes the reactor once, not thirty-one
//! times. The call only blocks when the window is full (after queueing
//! what it had reserved: acks of frames that never left cannot drain
//! it), or on [`Broker::flush`], which drains the pipeline and reports
//! (then clears) the loss ledger. An item the codec refuses fails
//! alone: its neighbours are queued and the call returns the first
//! error. The event-loop daemon acks the consecutive publishes of a
//! read turn — a batch, a pipelined storm — with one RECEIPT_LIST,
//! which the client expands back into per-seq receipts.
//!
//! The wire itself is abstracted behind
//! [`Transport`]: [`RemoteBroker::connect`]
//! dials TCP, [`RemoteBroker::connect_with`] accepts any connector (an
//! in-process socketpair, a fault-injecting wrapper), and the same
//! connector is re-invoked on every reconnect.
//!
//! ## I/O
//!
//! Callers never touch the socket: the process-wide `client_reactor`
//! loop owns it. This module owns everything above it: frame dispatch,
//! the pipeline window, the loss ledger, watermark replay and the
//! re-subscribe handshake.
//!
//! **Ordering.** All request frames of a connection pass through one
//! FIFO buffer and the daemon processes a connection's requests in
//! order, so publishes from one client — pipelined, blocking, or
//! interleaved — land in per-topic FIFO order; a blocking publish's
//! receipt accounts for every pipelined frame queued ahead of it.
//!
//! **Ack/loss semantics.** A pipelined publish that fails before the
//! frame is queued errors immediately (caller's error, e.g.
//! oversized payload or a timed-out reconnect wait). One that dies
//! *after* that — connection severed before its receipt, or refused
//! by the server — is counted on a loss ledger that the next
//! `flush()` returns and resets. Un-acked pipelined publishes are
//! **not** replayed on reconnect: the daemon may have processed a
//! frame whose receipt was lost with the connection, and re-sending
//! would duplicate it in the persistent log. A request's frame and
//! its waiter therefore live and die together: a frame reaches a fresh
//! connection only if whoever sent it is still waiting for the answer
//! (`ClientInner::submit` enforces it). This is the same
//! at-most-once-on-outage contract as the blocking path (whose
//! `Disconnected` error hot-path callers discard); flush points are
//! where a caller that needs certainty asks for it.
//!
//! **Flush points.** Call `flush()` wherever the program must know the
//! log contains everything published so far: end of a publish storm,
//! before tearing a run down, before asserting on `retained()` in a
//! test. Workflow execution itself needs no explicit flush — run
//! completion is observed through status messages that only exist
//! because their publish reached the daemon.
//!
//! The recovery contract covers **connection** loss: the daemon keeps
//! the log, the client reconnects and replays subscriptions
//! exactly-once (the offset-watermark dedupe is unchanged by
//! pipelining). Against a daemon serving with `--data-dir`, the same
//! contract extends to a *daemon* crash: the relaunched daemon
//! recovers its segment files at the offsets this client's watermarks
//! are defined against, so the ordinary reconnect + replay path
//! completes the run with no client-side changes. Only against a
//! purely in-memory daemon does a restart invalidate the watermarks —
//! there, restart the workflow run too.
//!
//! One daemon serves **many workflow runs**: topics are run-scoped
//! (`run/<id>/…`, [`ginflow_mq::namespace`]), so concurrent and
//! back-to-back runs with distinct run ids never see each other's
//! messages or history. The run-registry verbs here manage that
//! lifecycle: [`RemoteBroker::list_runs`] shows the daemon's per-run
//! topic accounting, [`RemoteBroker::close_run`] marks a run completed,
//! and [`RemoteBroker::gc_runs`] reclaims completed runs' topics (the
//! daemon's retention window does the same automatically).

use crate::client_reactor::ConnHandle;
use crate::transport::{Connector, Transport};
use ginflow_mq::metrics::{self, Counter, Gauge};
use ginflow_mq::wire::{Frame, RunStat, StatRow};
use ginflow_mq::{
    subscription_pair, Broker, Message, MqError, Receipt, SubscribeMode, SubscriberHandle,
    Subscription,
};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long one request waits for its reply.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a pipelined publish blocks on a full window — the acks an
/// outage is holding back — before giving up.
pub const RECONNECT_GRACE: Duration = Duration::from_secs(30);

/// Default bound on [`Broker::flush`]: generous enough to ride out a
/// reconnect-and-replay cycle, but finite — a severed-and-never-healed
/// connection surfaces as [`MqError::FlushTimeout`] instead of hanging
/// the flushing shard forever. Override per client with
/// [`RemoteBroker::set_flush_timeout`].
pub const DEFAULT_FLUSH_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on un-acknowledged pipelined publish bytes
/// ([`ginflow_mq::Broker::publish_nowait`]). While the window has room,
/// a pipelined publish costs one frame append — no round trip; when it
/// is full, the publisher blocks until the loop's asynchronous ack
/// consumption drains it. Bounds both client memory and how far the
/// publisher can run ahead of a slow daemon.
pub const PIPELINE_WINDOW_BYTES: usize = 4 * 1024 * 1024;

/// One client-side subscription: the delivery bridge plus what is
/// needed to resume it on a fresh connection.
struct RemoteSub {
    topic: String,
    /// The mode of the *original* subscribe call, used to resume a
    /// subscription that has not seen any message yet.
    origin_mode: SubscribeMode,
    handle: SubscriberHandle,
    /// Next expected offset per partition — the dedupe filter that makes
    /// reconnect replay exactly-once, and the resume point for
    /// [`SubscribeMode::FromOffset`] re-subscription.
    next_offset: Mutex<HashMap<u32, u64>>,
}

impl RemoteSub {
    /// Record the server's resume watermark for a head-attached
    /// (`Latest`) subscription: with it, a reconnect resumes from the log position the subscription
    /// attached at, so messages published during an outage replay
    /// instead of being lost — even if nothing was delivered before the
    /// drop. Replaying origins (`Beginning`/`FromOffset`) must NOT be
    /// seeded: their history arrives with offsets below the watermark
    /// and would be discarded as duplicates.
    fn seed_watermark(&self, resume: u64) {
        if resume != ginflow_mq::wire::NO_RESUME && self.origin_mode == SubscribeMode::Latest {
            self.next_offset.lock().entry(0).or_insert(resume);
        }
    }

    /// The mode to resume with after a reconnect: from the lowest unseen
    /// offset, or — nothing seen yet — exactly what was asked.
    fn resume_mode(&self) -> SubscribeMode {
        match self.next_offset.lock().values().min() {
            Some(&lowest) => SubscribeMode::FromOffset(lowest),
            None => self.origin_mode,
        }
    }

    /// Admit `message` past the per-partition watermark filter; replay
    /// duplicates from a reconnect — `offset` below the watermark — are
    /// absorbed here.
    fn admit(&self, message: &Message) -> bool {
        let mut next = self.next_offset.lock();
        let watermark = next.entry(message.partition).or_insert(0);
        if message.offset < *watermark {
            // Duplicate from a reconnect replay — absorbed, unless the
            // chaos suite has deliberately broken the filter to prove
            // it would catch exactly this regression.
            return !watermark_dedupe_enabled();
        }
        *watermark = message.offset + 1;
        true
    }

    /// Deliver one EVENTS frame's messages, waking the subscriber at
    /// most **once**, at the end (false = local subscriber is gone).
    fn deliver_batch(&self, messages: Vec<Message>) -> bool {
        let mut delivered = false;
        for message in messages {
            if !self.admit(&message) {
                continue;
            }
            if !self.handle.deliver(message) {
                return false;
            }
            delivered = true;
        }
        if delivered {
            self.handle.wake();
        }
        true
    }
}

/// What the frame dispatch does with a reply.
enum Waiter {
    /// Hand the raw reply frame to the requester.
    Reply(ReplySender),
    /// A subscribe in flight: the dispatch itself registers the
    /// subscription under the server-assigned id *before* processing any
    /// further frame, so no EVENTS can slip past between the ack and the
    /// registration.
    Subscribe {
        entry: Arc<RemoteSub>,
        reply: ReplySender,
    },
    /// A re-subscription issued by the reconnect path (no requester).
    Resubscribe { entry: Arc<RemoteSub> },
    /// A subscribe whose requester timed out and walked away: if the
    /// ack still arrives, the server-side subscription must be torn
    /// down rather than stream events nobody handles.
    Abandoned,
    /// A pipelined publish in flight: nobody blocks on the receipt —
    /// the dispatch consumes it and releases the publish's bytes from the
    /// pipeline window.
    Pipelined {
        /// Wire bytes this publish holds in the window.
        bytes: usize,
    },
}

/// Client-side pipeline instrumentation. Gauges move by deltas, so
/// several clients in one process (sharded engines, benchmark workers)
/// aggregate instead of overwriting each other.
struct ClientMetrics {
    inflight_bytes: Arc<Gauge>,
    inflight: Arc<Gauge>,
    lost: Arc<Counter>,
    reconnects: Arc<Counter>,
    subscriptions: Arc<Gauge>,
}

fn client_metrics() -> &'static ClientMetrics {
    static M: OnceLock<ClientMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = metrics::global();
        ClientMetrics {
            inflight_bytes: g.gauge(
                "gf_client_pipeline_inflight_bytes",
                "Un-acknowledged pipelined publish bytes occupying the in-flight window",
            ),
            inflight: g.gauge(
                "gf_client_pipeline_inflight",
                "Un-acknowledged pipelined publishes in flight",
            ),
            lost: g.counter(
                "gf_client_pipeline_lost_total",
                "Pipelined publishes recorded on the loss ledger (died un-acked or refused)",
            ),
            reconnects: g.counter(
                "gf_client_reconnects_total",
                "Connections re-established by the client after a drop",
            ),
            subscriptions: g.gauge(
                "gf_client_subscriptions",
                "Subscriptions registered under a server-assigned id, across clients",
            ),
        }
    })
}

/// Count one successful reconnect on `gf_client_reconnects_total`.
pub(crate) fn note_reconnect() {
    client_metrics().reconnects.inc();
}

/// Validation backdoor for the chaos suite: disabling the reconnect
/// watermark dedupe must make the exactly-once property fail with a
/// seed repro — proving the harness detects that regression. Process-
/// global; never touch outside a dedicated test process.
#[doc(hidden)]
pub fn set_watermark_dedupe(enabled: bool) {
    WATERMARK_DEDUPE_DISABLED.store(!enabled, Ordering::SeqCst);
}

static WATERMARK_DEDUPE_DISABLED: AtomicBool = AtomicBool::new(false);

fn watermark_dedupe_enabled() -> bool {
    !WATERMARK_DEDUPE_DISABLED.load(Ordering::SeqCst)
}

/// Un-acknowledged pipelined publishes: the window occupancy publishers
/// block on when full, and the loss ledger [`RemoteBroker::flush`]
/// reports from.
#[derive(Default)]
struct PipelineState {
    /// Wire bytes currently in flight.
    inflight_bytes: usize,
    /// Publishes currently in flight.
    inflight: usize,
    /// Pipelined publishes lost since the last flush (connection died
    /// before their ack, or the server refused them).
    lost: u64,
}

pub(crate) struct ClientInner {
    /// Dials a fresh transport to the daemon — the reconnect seam.
    /// TCP for [`RemoteBroker::connect`]; anything (an in-process
    /// socketpair, a fault-injecting wrapper) for
    /// [`RemoteBroker::connect_with`].
    connector: Connector,
    /// This connection's seat on the shared reactor loop: its outbound
    /// frame buffer and doorbell.
    conn: Arc<ConnHandle>,
    /// Requests awaiting a reply, by seq. The lock also orders
    /// [`ClientInner::submit`] against [`ClientInner::fail_pending`].
    pending: Mutex<HashMap<u64, Waiter>>,
    pipeline: Mutex<PipelineState>,
    /// Signalled whenever pipeline occupancy drops (ack consumed,
    /// pending failed): wakes window-full publishers and flushers.
    pipeline_drained: Condvar,
    subs: Mutex<HashMap<u64, Arc<RemoteSub>>>,
    /// Subscriptions whose re-subscription was in flight when the
    /// connection died again; the next reconnect pass re-issues them.
    orphans: Mutex<Vec<Arc<RemoteSub>>>,
    seq: AtomicU64,
    shutdown: AtomicBool,
    /// Upper bound on one [`Broker::flush`] call, in milliseconds
    /// ([`DEFAULT_FLUSH_TIMEOUT`]; [`RemoteBroker::set_flush_timeout`]).
    flush_timeout_ms: AtomicU64,
}

/// A [`Broker`] living in another process, reached over TCP. Dropping
/// the value closes the connection and deregisters it from the shared
/// reactor loop.
pub struct RemoteBroker {
    inner: Arc<ClientInner>,
}

impl RemoteBroker {
    /// Connect to a broker daemon over TCP. Accepts `host:port` or
    /// `tcp://host:port`.
    pub fn connect(addr: &str) -> std::io::Result<RemoteBroker> {
        let addr = addr.strip_prefix("tcp://").unwrap_or(addr).to_owned();
        RemoteBroker::connect_with(Box::new(move || {
            let stream = TcpStream::connect(&addr)?;
            let _ = stream.set_nodelay(true);
            Ok(Box::new(stream) as Box<dyn Transport>)
        }))
    }

    /// Connect through an arbitrary [`Connector`] — how the client runs
    /// over anything that speaks [`Transport`]: an in-process
    /// socketpair from
    /// [`BrokerServer::connect_in_process`](crate::BrokerServer::connect_in_process),
    /// or a fault-injecting wrapper. The connector is also the
    /// reconnect path: it is re-invoked whenever the connection drops.
    /// The dialed socket is handed to the process-shared epoll loop;
    /// the connection owns no threads.
    pub fn connect_with(connector: Connector) -> std::io::Result<RemoteBroker> {
        let stream = connector()?;
        let conn = ConnHandle::acquire()?;
        let inner = Arc::new(ClientInner {
            connector,
            conn: conn.clone(),
            pending: Mutex::new(HashMap::new()),
            pipeline: Mutex::new(PipelineState::default()),
            pipeline_drained: Condvar::new(),
            subs: Mutex::new(HashMap::new()),
            orphans: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            flush_timeout_ms: AtomicU64::new(DEFAULT_FLUSH_TIMEOUT.as_millis() as u64),
        });
        conn.register(stream, inner.clone());
        RemoteBroker::handshake(RemoteBroker { inner })
    }

    /// Handshake: one INFO round trip, so a connection that cannot
    /// answer fails here rather than on the first request.
    fn handshake(broker: RemoteBroker) -> std::io::Result<RemoteBroker> {
        match broker.info("") {
            Ok(_) => Ok(broker),
            Err(e) => Err(std::io::Error::other(format!("broker handshake: {e}"))),
        }
    }

    /// Close the connection and release its I/O resources. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Deregistering closes the socket and, if this was the last
        // connection, lets the shared loop retire itself.
        self.inner.conn.close();
        // Drain whatever was still pending (pipelined publishes
        // included) so window waiters and flushers unblock promptly
        // instead of timing out against a closed connection.
        self.inner.fail_pending();
    }

    /// Bound how long one [`Broker::flush`] call may wait for the
    /// pipeline to drain before returning [`MqError::FlushTimeout`].
    /// Defaults to [`DEFAULT_FLUSH_TIMEOUT`]; sub-millisecond durations
    /// round up to 1 ms so the bound stays finite and nonzero.
    pub fn set_flush_timeout(&self, timeout: Duration) {
        let ms = (timeout.as_millis() as u64).max(1);
        self.inner.flush_timeout_ms.store(ms, Ordering::SeqCst);
    }

    fn next_seq(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Round trip returning the reply frame (or the server's error).
    fn call(&self, make: impl FnOnce(u64) -> Frame) -> Result<Frame, MqError> {
        let seq = self.next_seq();
        let buf = encode(&make(seq))?;
        let (tx, rx) = sync_channel(1);
        self.inner.submit([(seq, Waiter::Reply(tx))], &buf)?;
        match rx.recv_timeout(REQUEST_TIMEOUT) {
            Ok(reply) => unwrap_reply(reply?),
            Err(_) => {
                self.inner.pending.lock().remove(&seq);
                Err(MqError::Timeout)
            }
        }
    }

    /// A topic's partitions and retained messages.
    fn info(&self, topic: &str) -> Result<(u32, u64), MqError> {
        match self.call(|seq| Frame::Info {
            seq,
            topic: topic.to_owned(),
        })? {
            Frame::InfoReply {
                partitions,
                retained,
                ..
            } => Ok((partitions, retained)),
            other => Err(protocol_error(&other)),
        }
    }

    /// The daemon's run registry: every run it has seen (topics are
    /// run-scoped, so any `run/<id>/…` publish or subscribe registers
    /// the run), with per-run topic and retained-message accounting.
    pub fn list_runs(&self) -> Result<Vec<RunStat>, MqError> {
        match self.call(|seq| Frame::RunList { seq })? {
            Frame::RunListReply { runs, .. } => Ok(runs),
            other => Err(protocol_error(&other)),
        }
    }

    /// Mark `run` completed on the daemon, making its topics
    /// reclaimable by [`RemoteBroker::gc_runs`] (or the daemon's
    /// retention sweeper). Idempotent; returns whether the daemon knew
    /// the run.
    ///
    /// Closing a run also says this client is done with it: both ends
    /// release what the connection holds for the run — the daemon its
    /// session's subscriptions and topic cache, this client the
    /// delivery bridges of the run's subscriptions (a [`Subscription`]
    /// of the run still held locally sees disconnection) — so a client
    /// that outlives its runs carries nothing over from one to the
    /// next.
    pub fn close_run(&self, run: &str) -> Result<bool, MqError> {
        match self.call(|seq| Frame::RunClose {
            seq,
            run: run.to_owned(),
        })? {
            Frame::RunGcReply { runs, .. } => {
                self.inner.forget_run(run);
                Ok(runs > 0)
            }
            other => Err(protocol_error(&other)),
        }
    }

    /// Reclaim every completed run's topics now. Returns
    /// `(runs, topics)` dropped.
    pub fn gc_runs(&self) -> Result<(u32, u32), MqError> {
        match self.call(|seq| Frame::RunGc { seq })? {
            Frame::RunGcReply { runs, topics, .. } => Ok((runs, topics)),
            other => Err(protocol_error(&other)),
        }
    }

    /// The daemon's metrics snapshot (`STATS`): one flat
    /// `(name, label, value)` row per registry series, per-run gauges
    /// refreshed server-side — what `ginflow broker top` polls and
    /// renders.
    pub fn stats(&self) -> Result<Vec<StatRow>, MqError> {
        match self.call(|seq| Frame::Stats { seq })? {
            Frame::StatsReply { stats, .. } => Ok(stats),
            other => Err(protocol_error(&other)),
        }
    }
}

impl Drop for RemoteBroker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn unwrap_reply(frame: Frame) -> Result<Frame, MqError> {
    match frame {
        Frame::Error { message, .. } => Err(MqError::Remote { message }),
        other => Ok(other),
    }
}

fn protocol_error(frame: &Frame) -> MqError {
    MqError::Remote {
        message: format!("unexpected reply frame {frame:?}"),
    }
}

/// Where the loop sends the one reply a request gets: a
/// `sync_channel(1)`. With one slot the single `send` never blocks the
/// loop thread.
type ReplySender = SyncSender<Result<Frame, MqError>>;

/// Encode a request frame. A frame the codec refuses (oversized
/// payload) is the *caller's* error and never reaches the connection.
fn encode(frame: &Frame) -> Result<Vec<u8>, MqError> {
    frame.encode().map_err(|e| MqError::Remote {
        message: e.to_string(),
    })
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        client_metrics()
            .subscriptions
            .sub(self.subs.get_mut().len() as u64);
    }
}

impl ClientInner {
    /// Register `entry` under the id the server assigned it.
    fn register_sub(&self, id: u64, entry: Arc<RemoteSub>) {
        if self.subs.lock().insert(id, entry).is_none() {
            client_metrics().subscriptions.add(1);
        }
    }

    /// Forget subscription `id` (its local subscriber is gone).
    fn drop_sub(&self, id: u64) {
        if self.subs.lock().remove(&id).is_some() {
            client_metrics().subscriptions.sub(1);
        }
    }

    /// Release everything held for `run`'s subscriptions — see
    /// [`RemoteBroker::close_run`].
    fn forget_run(&self, run: &str) {
        let of_run =
            |entry: &Arc<RemoteSub>| ginflow_mq::namespace::run_of(&entry.topic) == Some(run);
        let mut subs = self.subs.lock();
        let before = subs.len();
        subs.retain(|_, entry| !of_run(entry));
        client_metrics()
            .subscriptions
            .sub((before - subs.len()) as u64);
        drop(subs);
        self.orphans.lock().retain(|entry| !of_run(entry));
    }

    /// Whether [`RemoteBroker::shutdown`] has begun (reactor loop's
    /// redial gate).
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Invoke the connector — the reactor's redial seam.
    pub(crate) fn dial(&self) -> std::io::Result<Box<dyn Transport>> {
        (self.connector)()
    }

    /// Register `waiters` and queue their encoded `frames` for the
    /// reactor loop, as one step with respect to
    /// [`ClientInner::fail_pending`]: a connection loss either fails
    /// these waiters *and* discards these bytes, or happens-before both
    /// — in which case the request rides out the outage and goes to the
    /// fresh connection with its waiter still registered. Queued bytes
    /// without a waiter would be re-sent after their caller was already
    /// told `Disconnected` (and retried): a duplicate in the log.
    ///
    /// One FIFO per connection is also what preserves ordering across
    /// pipelined and blocking requests from any number of caller
    /// threads.
    fn submit(
        &self,
        waiters: impl IntoIterator<Item = (u64, Waiter)>,
        frames: &[u8],
    ) -> Result<(), MqError> {
        {
            let mut pending = self.pending.lock();
            if self.is_shutdown() {
                return Err(MqError::Disconnected);
            }
            pending.extend(waiters);
            self.conn.append(frames);
        }
        self.conn.kick();
        Ok(())
    }

    /// Reserve `bytes` of pipeline window, blocking while it is full.
    /// Before it blocks it runs `before_waiting` (once): the caller's
    /// chance to submit what it has reserved but not yet queued — acks
    /// of frames that never left cannot drain the window.
    fn pipeline_reserve(
        &self,
        bytes: usize,
        before_waiting: impl FnOnce() -> Result<(), MqError>,
    ) -> Result<(), MqError> {
        let mut p = self.pipeline.lock();
        if p.inflight_bytes >= PIPELINE_WINDOW_BYTES {
            drop(p);
            before_waiting()?;
            p = self.pipeline.lock();
        }
        let deadline = Instant::now() + RECONNECT_GRACE;
        while p.inflight_bytes >= PIPELINE_WINDOW_BYTES {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(MqError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(MqError::Timeout);
            }
            self.pipeline_drained.wait_for(&mut p, deadline - now);
        }
        p.inflight_bytes += bytes;
        p.inflight += 1;
        // Mirror the lock-guarded exact values with plain stores — a
        // relaxed `set` costs less than a fetch-add on a cache line the
        // publisher and loop threads would otherwise both RMW.
        let m = client_metrics();
        m.inflight_bytes.set(p.inflight_bytes as u64);
        m.inflight.set(p.inflight as u64);
        Ok(())
    }

    /// Queue reserved pipelined publishes — their waiters and their
    /// frames, both left empty. A submit the connection refuses never
    /// left: that is the caller's error, not a silent pipeline loss, so
    /// the reservations are handed back.
    fn submit_pipelined(
        &self,
        waiters: &mut Vec<(u64, Waiter)>,
        frames: &mut Vec<u8>,
    ) -> Result<(), MqError> {
        if waiters.is_empty() {
            return Ok(());
        }
        let publishes = waiters.len();
        let bytes = frames.len();
        self.submit(waiters.drain(..), &std::mem::take(frames))
            .inspect_err(|_| self.pipeline_release(publishes, bytes, false))
    }

    /// Release the window reservation of `publishes` pipelined publishes
    /// holding `bytes` between them; `lost` records them on the ledger
    /// [`RemoteBroker::flush`] reports from.
    fn pipeline_release(&self, publishes: usize, bytes: usize, lost: bool) {
        let mut p = self.pipeline.lock();
        p.inflight_bytes = p.inflight_bytes.saturating_sub(bytes);
        p.inflight = p.inflight.saturating_sub(publishes);
        if lost {
            p.lost += publishes as u64;
        }
        let m = client_metrics();
        m.inflight_bytes.set(p.inflight_bytes as u64);
        m.inflight.set(p.inflight as u64);
        drop(p);
        if lost {
            m.lost.add(publishes as u64);
        }
        self.pipeline_drained.notify_all();
    }

    /// Send without waiting for a live connection — for best-effort
    /// frames issued from the frame-dispatch path, which must never
    /// block on a reconnect. Dropped (not queued) while disconnected:
    /// these frames carry server-assigned ids that are meaningless on
    /// a fresh connection.
    fn send_best_effort(&self, frame: &Frame) {
        if let Ok(buf) = frame.encode() {
            self.conn.best_effort(buf);
        }
    }

    /// Encode the re-subscribe batch for a fresh connection,
    /// registering a [`Waiter::Resubscribe`] per live subscription (the
    /// loop queues these bytes ahead of anything published during the
    /// outage). Old server-assigned ids are meaningless on a fresh
    /// connection; orphans are re-subscriptions a previous reconnect
    /// never finished. If the fresh connection dies before the batch is
    /// written, [`ClientInner::fail_pending`] routes the waiters to
    /// the orphan list and the next reconnect pass re-issues them.
    pub(crate) fn resubscribe_batch(&self) -> Vec<u8> {
        let mut live: Vec<Arc<RemoteSub>> = self.subs.lock().drain().map(|(_, e)| e).collect();
        client_metrics().subscriptions.sub(live.len() as u64);
        live.append(&mut self.orphans.lock());
        let mut batch = Vec::new();
        for entry in live {
            let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
            let frame = Frame::Subscribe {
                seq,
                topic: entry.topic.clone(),
                mode: entry.resume_mode(),
            };
            match frame.encode() {
                Ok(buf) => {
                    self.pending
                        .lock()
                        .insert(seq, Waiter::Resubscribe { entry });
                    batch.extend_from_slice(&buf);
                }
                // An unencodable subscribe cannot happen for topics
                // that subscribed once already; park it for the next
                // pass rather than lose the subscription.
                Err(_) => self.orphans.lock().push(entry),
            }
        }
        batch
    }

    /// Fail every in-flight request and discard its not-yet-written
    /// frame (the other half of [`ClientInner::submit`]'s invariant):
    /// requesters see `Disconnected` and retry; re-subscriptions in
    /// flight move to the orphan list so the next reconnect pass
    /// re-issues them.
    pub(crate) fn fail_pending(&self) {
        let pending: Vec<Waiter> = {
            let mut map = self.pending.lock();
            self.conn.discard_outbound();
            map.drain().map(|(_, w)| w).collect()
        };
        for waiter in pending {
            match waiter {
                Waiter::Reply(tx) | Waiter::Subscribe { reply: tx, .. } => {
                    let _ = tx.send(Err(MqError::Disconnected));
                }
                Waiter::Resubscribe { entry } => {
                    self.orphans.lock().push(entry);
                }
                // The requester already gave up; the connection the
                // server-side subscription lived on is gone too.
                Waiter::Abandoned => {}
                // The publish died with the connection before its ack:
                // release the window and record the loss for the next
                // flush (at-most-once on outage, like the blocking
                // path's discarded Disconnected error).
                Waiter::Pipelined { bytes } => self.pipeline_release(1, bytes, true),
            }
        }
    }

    /// Expand one RECEIPT_LIST — `receipts` in seq order from
    /// `seq_first` — back into the per-seq receipts the waiters expect:
    /// one `pending` lock for the frame, the pipelined publishes' window
    /// bytes released together, and every blocking publisher handed its
    /// own exact receipt, as a list of one.
    fn on_receipts(&self, seq_first: u64, receipts: Vec<Receipt>) {
        let waiters: Vec<(u64, Receipt, Waiter)> = {
            let mut pending = self.pending.lock();
            (seq_first..)
                .zip(receipts)
                .filter_map(|(seq, r)| pending.remove(&seq).map(|w| (seq, r, w)))
                .collect()
        };
        let (mut acked, mut acked_bytes) = (0, 0);
        for (seq, receipt, waiter) in waiters {
            match waiter {
                Waiter::Reply(tx) => {
                    let _ = tx.send(Ok(Frame::ReceiptList {
                        seq_first: seq,
                        receipts: vec![receipt],
                    }));
                }
                // The common case: pipelined publishes acked in bulk.
                Waiter::Pipelined { bytes } => {
                    acked += 1;
                    acked_bytes += bytes;
                }
                Waiter::Subscribe { reply, .. } => {
                    let _ = reply.send(Err(MqError::Remote {
                        message: "publish receipt in reply to a subscribe request".into(),
                    }));
                }
                Waiter::Resubscribe { .. } | Waiter::Abandoned => {}
            }
        }
        if acked > 0 {
            self.pipeline_release(acked, acked_bytes, false);
        }
    }

    /// Handle one frame from the server (called on the reactor loop).
    pub(crate) fn on_frame(&self, frame: Frame) {
        match frame {
            Frame::Events { sub, messages } => {
                let entry = self.subs.lock().get(&sub).cloned();
                if let Some(entry) = entry {
                    if !entry.deliver_batch(messages) {
                        // Local subscriber dropped its Subscription:
                        // prune and tell the server. Best-effort only —
                        // this runs on the loop thread, which must
                        // not park waiting for a reconnect; a missed
                        // unsubscribe just means the server keeps an
                        // ignored subscription until the connection
                        // turns over.
                        self.drop_sub(sub);
                        self.send_best_effort(&Frame::Unsubscribe { seq: 0, sub });
                    }
                }
            }
            Frame::Subscribed { seq, sub, resume } => {
                let waiter = self.pending.lock().remove(&seq);
                match waiter {
                    Some(Waiter::Subscribe { entry, reply }) => {
                        // Register before touching the socket again —
                        // the very next frame may be this sub's EVENTS.
                        entry.seed_watermark(resume);
                        self.register_sub(sub, entry);
                        let _ = reply.send(Ok(Frame::Subscribed { seq, sub, resume }));
                    }
                    Some(Waiter::Resubscribe { entry }) => {
                        entry.seed_watermark(resume);
                        self.register_sub(sub, entry);
                    }
                    Some(Waiter::Reply(tx)) => {
                        let _ = tx.send(Ok(Frame::Subscribed { seq, sub, resume }));
                    }
                    Some(Waiter::Abandoned) => {
                        // The requester timed out and walked away; tear
                        // the freshly opened server-side subscription
                        // down instead of letting it stream into the
                        // void.
                        self.send_best_effort(&Frame::Unsubscribe { seq: 0, sub });
                    }
                    // A SUBSCRIBED reply to a publish seq is server
                    // nonsense; release the window either way.
                    Some(Waiter::Pipelined { bytes }) => self.pipeline_release(1, bytes, false),
                    None => {}
                }
            }
            Frame::ReceiptList {
                seq_first,
                receipts,
            } => self.on_receipts(seq_first, receipts),
            Frame::Messages { .. }
            | Frame::InfoReply { .. }
            | Frame::RunListReply { .. }
            | Frame::RunGcReply { .. }
            | Frame::StatsReply { .. } => {
                let seq = match &frame {
                    Frame::Messages { seq, .. }
                    | Frame::InfoReply { seq, .. }
                    | Frame::RunListReply { seq, .. }
                    | Frame::RunGcReply { seq, .. }
                    | Frame::StatsReply { seq, .. } => *seq,
                    _ => unreachable!(),
                };
                if let Some(waiter) = self.pending.lock().remove(&seq) {
                    match waiter {
                        Waiter::Reply(tx) => {
                            let _ = tx.send(Ok(frame));
                        }
                        Waiter::Subscribe { reply, .. } => {
                            let _ = reply.send(Err(protocol_error(&frame)));
                        }
                        // A non-receipt reply to a publish seq is server
                        // nonsense; release the window either way.
                        Waiter::Pipelined { bytes } => self.pipeline_release(1, bytes, false),
                        Waiter::Resubscribe { .. } | Waiter::Abandoned => {}
                    }
                }
            }
            Frame::Error { seq, message } => {
                if let Some(waiter) = self.pending.lock().remove(&seq) {
                    match waiter {
                        Waiter::Reply(tx) | Waiter::Subscribe { reply: tx, .. } => {
                            let _ = tx.send(Err(MqError::Remote { message }));
                        }
                        // The server refused a pipelined publish; the
                        // loss surfaces on the next flush.
                        Waiter::Pipelined { bytes } => self.pipeline_release(1, bytes, true),
                        // A failed re-subscription is dropped; the
                        // subscription dies quietly like a local one
                        // whose broker went away.
                        Waiter::Resubscribe { .. } | Waiter::Abandoned => {}
                    }
                }
            }
            // Clients never receive request frames; ignore.
            Frame::Publish { .. }
            | Frame::Subscribe { .. }
            | Frame::Unsubscribe { .. }
            | Frame::Fetch { .. }
            | Frame::Info { .. }
            | Frame::RunList { .. }
            | Frame::RunClose { .. }
            | Frame::RunGc { .. }
            | Frame::Stats { .. } => {}
        }
    }
}

impl Broker for RemoteBroker {
    fn publish(
        &self,
        topic: &str,
        key: Option<bytes::Bytes>,
        payload: bytes::Bytes,
    ) -> Result<Receipt, MqError> {
        match self.call(|seq| Frame::Publish {
            seq,
            topic: topic.to_owned(),
            key,
            payload,
        })? {
            Frame::ReceiptList { receipts, .. } if receipts.len() == 1 => Ok(receipts[0]),
            other => Err(protocol_error(&other)),
        }
    }

    /// The pipelined hot path, as the batch of one — see
    /// [`RemoteBroker::publish_many_nowait`], the single place a
    /// pipelined publish is queued.
    fn publish_nowait(
        &self,
        topic: &str,
        key: Option<bytes::Bytes>,
        payload: bytes::Bytes,
    ) -> Result<(), MqError> {
        self.publish_many_nowait(vec![(topic.to_owned(), key, payload)])
    }

    /// Pipelined publish of a batch: every item is encoded into one
    /// buffer, reserves its share of the window
    /// ([`PIPELINE_WINDOW_BYTES`]; the call blocks only while that is
    /// full), and the whole batch is queued by **one** submit — one
    /// `pending` lock, one append to the connection's FIFO, one
    /// doorbell ring — no round trip. Receipts are consumed
    /// asynchronously by the reactor loop, which releases the window
    /// bytes; the daemon acks a batch with one RECEIPT_LIST. Frames go
    /// out on the same socket in batch order behind whatever this client
    /// queued before, so per-topic FIFO ordering holds exactly as for
    /// the blocking path.
    ///
    /// An item that cannot be queued — a payload the codec refuses, a
    /// full window that never drained — fails alone: the rest of the
    /// batch is still queued, and the call returns the first error.
    fn publish_many_nowait(
        &self,
        batch: Vec<(String, Option<bytes::Bytes>, bytes::Bytes)>,
    ) -> Result<(), MqError> {
        let mut first_error = None;
        let mut waiters: Vec<(u64, Waiter)> = Vec::with_capacity(batch.len());
        let mut frames: Vec<u8> = Vec::new();
        for (topic, key, payload) in batch {
            let seq = self.next_seq();
            let queued = encode(&Frame::Publish {
                seq,
                topic,
                key,
                payload,
            })
            .and_then(|buf| {
                self.inner.pipeline_reserve(buf.len(), || {
                    self.inner.submit_pipelined(&mut waiters, &mut frames)
                })?;
                Ok(buf)
            });
            match queued {
                Ok(buf) => {
                    waiters.push((seq, Waiter::Pipelined { bytes: buf.len() }));
                    if frames.is_empty() {
                        frames = buf;
                    } else {
                        frames.extend_from_slice(&buf);
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        let submitted = self.inner.submit_pipelined(&mut waiters, &mut frames);
        first_error.map_or(submitted, Err)
    }

    /// Wait until every pipelined publish has been acknowledged.
    /// Reports (and clears) the loss ledger: publishes that died
    /// un-acked with a severed connection or were refused by the
    /// server since the previous flush.
    fn flush(&self) -> Result<(), MqError> {
        let budget_ms = self.inner.flush_timeout_ms.load(Ordering::SeqCst);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(budget_ms);
        let mut p = self.inner.pipeline.lock();
        loop {
            if p.inflight == 0 {
                if p.lost > 0 {
                    let lost = std::mem::take(&mut p.lost);
                    return Err(MqError::Remote {
                        message: format!(
                            "{lost} pipelined publish(es) lost before acknowledgement"
                        ),
                    });
                }
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(MqError::FlushTimeout {
                    inflight: p.inflight as u64,
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            self.inner.pipeline_drained.wait_for(&mut p, deadline - now);
        }
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        let (handle, subscription) = subscription_pair();
        let entry = Arc::new(RemoteSub {
            topic: topic.to_owned(),
            origin_mode: mode,
            handle,
            next_offset: Mutex::new(HashMap::new()),
        });
        let seq = self.next_seq();
        let buf = encode(&Frame::Subscribe {
            seq,
            topic: topic.to_owned(),
            mode,
        })?;
        let (reply, rx) = sync_channel(1);
        self.inner
            .submit([(seq, Waiter::Subscribe { entry, reply })], &buf)?;
        match rx.recv_timeout(REQUEST_TIMEOUT) {
            Ok(Ok(_)) => Ok(subscription),
            Ok(Err(e)) => Err(e),
            Err(_) => {
                // Leave a tombstone: if the ack still arrives, the
                // dispatch unsubscribes the orphaned server-side
                // subscription instead of letting it stream events
                // nobody handles.
                let mut pending = self.inner.pending.lock();
                if pending.remove(&seq).is_some() {
                    pending.insert(seq, Waiter::Abandoned);
                }
                Err(MqError::Timeout)
            }
        }
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        match self.call(|seq| Frame::Fetch {
            seq,
            topic: topic.to_owned(),
            partition,
            from: from_offset,
            max: max.min(u32::MAX as usize) as u32,
        })? {
            Frame::Messages { messages, .. } => Ok(messages),
            other => Err(protocol_error(&other)),
        }
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.info(topic).map(|(p, _)| p).unwrap_or(1)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.info(topic).map(|(_, r)| r).unwrap_or(0)
    }
}
