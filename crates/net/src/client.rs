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
//!   that has seen offsets resumes with [`SubscribeMode::FromOffset`] at
//!   the lowest unseen offset; the per-partition offset filter then drops
//!   whatever the replay re-delivers, so consumers observe an
//!   exactly-once stream across connection loss.
//! * **Sends ride out outages.** Publishes and requests made while the
//!   connection is down stay queued for the redial (the wait is bounded
//!   by the request timeout, and by [`RECONNECT_GRACE`] on a full
//!   pipeline window) instead of failing — an agent mid-workflow never
//!   silently loses a result message to a severed connection.
//!
//! ## One core, one lock
//!
//! Everything a connection knows is one plain value, the `ClientCore`:
//! the seq counter and the waiters, the subscription table with each
//! entry's watermarks, the pipeline window and the loss ledger, the
//! bytes queued for the link and whether a link is up, and the redial
//! ladder. It holds no socket, thread, channel or clock: it is fed
//! calls (`submit`, `publish`, `on_frame`, `on_lost`, `on_connected`,
//! with `now` passed in where time matters) and hands back the bytes
//! to write and the deliveries to make. The callers of [`Broker`]
//! methods and the process's `client_reactor` loop drive it under one
//! mutex; one condvar wakes callers waiting for an answer, for window
//! room or for a flush. The loop makes deliveries after it releases the
//! lock, so no subscriber's waker ever runs under it. The unit tests at
//! the bottom of this file drive the core with no socket at all.
//!
//! ## Pipelined publish
//!
//! [`Broker::publish`] is the blocking path: one round trip per
//! message, its receipt — the daemon's RECEIPT_LIST of one — returned
//! to the caller.
//! [`Broker::publish_many_nowait`] is the hot path, and the only place
//! a pipelined publish is queued ([`Broker::publish_nowait`] is the
//! batch of one): the batch's PUBLISH frames are queued under one lock
//! of the core and the reactor is rung once, however many items — and
//! the call returns; the loop consumes the receipts asynchronously,
//! releasing bytes from the in-flight window ([`PIPELINE_WINDOW_BYTES`]).
//! An agent turn that publishes a status update and thirty results
//! wakes the reactor once, not thirty-one times. The call only blocks
//! when the window is full (after ringing for what it queued: acks of
//! frames that never left cannot drain it), or on [`Broker::flush`],
//! which drains the pipeline and reports (then clears) the loss ledger.
//! An item the codec refuses fails alone: its neighbours are queued and
//! the call returns the first error. The daemon acks the consecutive
//! publishes of a read turn with one RECEIPT_LIST, which the core
//! expands back into per-seq receipts.
//!
//! The wire itself is abstracted behind [`Transport`]:
//! [`RemoteBroker::connect`] dials TCP, [`RemoteBroker::connect_with`]
//! accepts any connector (an in-process socketpair, a fault-injecting
//! wrapper), and the same connector is re-invoked on every reconnect.
//!
//! **Ordering.** All request frames of a connection pass through the
//! core's one queue and the daemon processes a connection's requests in
//! order, so publishes from one client — pipelined, blocking, or
//! interleaved — land in per-topic FIFO order; a blocking publish's
//! receipt accounts for every pipelined frame queued ahead of it.
//! Re-subscriptions leave ahead of anything queued during an outage.
//!
//! **Ack/loss contract.** A frame reaches a connection only while
//! whoever sent it is still waiting for the answer:
//!
//! * A pipelined publish that fails before its frame is queued errors
//!   at once (caller's error: oversized payload, a closed client, a
//!   full window that never drained). One that dies *after* — the
//!   connection lost before its receipt, or refused by the server — is
//!   counted on a loss ledger that the next `flush()` returns and
//!   resets. Un-acked pipelined publishes are **not** replayed on
//!   reconnect: the daemon may have processed a frame whose receipt
//!   was lost with the connection, and re-sending would duplicate it
//!   in the log.
//! * A connection loss fails every request in flight
//!   (`Disconnected`) and discards every queued byte with it.
//! * A blocking request that reaches its timeout (`Timeout`) is given
//!   up: if its frame has not left yet, the frame is withdrawn with it —
//!   a timed-out publish never lands in the log later, a timed-out
//!   `close_run` never acts; if the frame has left, the request is
//!   abandoned — its reply is ignored and a late SUBSCRIBED is torn
//!   down with an UNSUBSCRIBE.
//!
//! This is at-most-once on outage, like the blocking path's
//! `Disconnected` error that hot-path callers discard; flush points are
//! where a caller that needs certainty asks for it.
//!
//! * An APPEND ([`Broker::append_many`]: a record its topic's only
//!   writer numbered) is the exception: exactly-once, in a window of its
//!   own ([`APPEND_WINDOW_BYTES`]). The core keeps it
//!   until its receipt, and a connection lost before then does not fail
//!   it: the next connection re-sends every kept APPEND, in order, right
//!   after the re-subscriptions. The daemon skips a record whose offset
//!   is below its partition's end and matches the record there — it
//!   landed before the receipt was lost — so the log holds each record
//!   once, with no gap. The record goes on the loss ledger when a
//!   receipt names another offset (the daemon's log ends short of it:
//!   the daemon lost records), when an ERROR answers it (another record
//!   holds its offset: a second writer moved the end), and when the
//!   client closes first. APPENDs take window room like pipelined
//!   publishes. [`Broker::wait_appended`] waits for their receipts and
//!   leaves the ledger alone, for a writer that reads back what it
//!   appended; [`Broker::flush`] waits for them too, and reports and
//!   clears the ledger as ever. A batch of them rings the reactor only
//!   when none is in flight: otherwise the receipt in flight brings the
//!   reactor back, and it sends them then (Nagle's rule), so an APPEND
//!   leaves at most one round trip after it was made.
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
use crate::link::Outbox;
use crate::transport::{Connector, Transport};
use ginflow_mq::metrics::{self, Counter, Gauge};
use ginflow_mq::wire::{Frame, RunStat, StatRow};
use ginflow_mq::{
    subscription_pair, Broker, Message, MqError, Receipt, SubscribeMode, SubscriberHandle,
    Subscription,
};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// The window an APPEND waits for room under: the in-flight bytes past
/// which [`RemoteBroker::append_many`] blocks. An only writer waits on
/// no round trip, so it can number its whole log before the daemon has
/// read the first record, and every record stays kept until receipted:
/// this bounds the client's copy to about a hundred records, where the
/// pipeline window would let it reach megabytes. On a 4000-task TCP
/// chain (2 vCPUs, daemon in the same process) this window ran 13 %
/// faster than 2 KiB at the same peak RSS within noise; 64 KiB raised
/// the peak by ≈ 0.75 MiB.
pub const APPEND_WINDOW_BYTES: usize = 8 * 1024;

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

/// A per-connection jitter seed (hashmap `RandomState` is the stdlib's
/// per-process entropy — no clock involved).
fn jitter_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
        | 1
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

/// One client-side subscription: the delivery bridge plus what is
/// needed to resume it on a fresh connection.
struct RemoteSub {
    topic: String,
    /// The mode of the *original* subscribe call, used to resume a
    /// subscription that has not seen any message yet.
    origin_mode: SubscribeMode,
    handle: Arc<SubscriberHandle>,
    /// Next expected offset per partition — the dedupe filter that makes
    /// reconnect replay exactly-once, and the resume point for
    /// [`SubscribeMode::FromOffset`] re-subscription.
    next_offset: HashMap<u32, u64>,
}

impl RemoteSub {
    /// Record the server's resume watermark for a head-attached
    /// (`Latest`) subscription: with it, a reconnect resumes from the
    /// log position the subscription attached at, so messages published
    /// during an outage replay instead of being lost — even if nothing
    /// was delivered before the drop. Replaying origins
    /// (`Beginning`/`FromOffset`) must NOT be seeded: their history
    /// arrives with offsets below the watermark and would be discarded
    /// as duplicates.
    fn seed_watermark(&mut self, resume: u64) {
        if resume != ginflow_mq::wire::NO_RESUME && self.origin_mode == SubscribeMode::Latest {
            self.next_offset.entry(0).or_insert(resume);
        }
    }

    /// The mode to resume with after a reconnect: from the lowest unseen
    /// offset, or — nothing seen yet — exactly what was asked.
    fn resume_mode(&self) -> SubscribeMode {
        match self.next_offset.values().min() {
            Some(&lowest) => SubscribeMode::FromOffset(lowest),
            None => self.origin_mode,
        }
    }

    /// Admit `message` past the per-partition watermark filter; replay
    /// duplicates from a reconnect — `offset` below the watermark — are
    /// absorbed here.
    fn admit(&mut self, message: &Message) -> bool {
        let watermark = self.next_offset.entry(message.partition).or_insert(0);
        if message.offset < *watermark {
            // Duplicate from a reconnect replay — absorbed, unless the
            // chaos suite has deliberately broken the filter to prove
            // it would catch exactly this regression.
            return !watermark_dedupe_enabled();
        }
        *watermark = message.offset + 1;
        true
    }
}

/// Who is waiting for the reply to one seq.
enum Waiter {
    /// A blocking request: its caller waits on the condvar for `Done`.
    Reply,
    /// A subscribe in flight. On SUBSCRIBED the core enters the
    /// subscription in its table *before* it handles any further frame,
    /// so no EVENTS can slip past between the ack and the registration.
    Subscribe(Box<RemoteSub>),
    /// A re-subscription of table entry `local`, issued at a connect.
    Resubscribe(u64),
    /// A request given up after its frame left: a late reply is
    /// ignored, a late SUBSCRIBED torn down.
    Abandoned,
    /// A pipelined publish holding `bytes` of the window: nobody blocks
    /// on its receipt.
    Pipelined { bytes: usize },
    /// An APPEND of the record numbered `offset`, holding `bytes` of the
    /// window and kept in `ClientCore::kept` until its receipt: a loss
    /// re-sends it rather than failing it.
    Append { bytes: usize, offset: u64 },
    /// The answer of a blocking request, for its caller to collect.
    Done(Box<Result<Frame, MqError>>),
}

/// One EVENTS frame's admitted messages, for the reactor to hand to the
/// local subscriber outside the core's lock.
pub(crate) struct Delivery {
    /// The server-assigned id they arrived under.
    pub(crate) sub: u64,
    handle: Arc<SubscriberHandle>,
    messages: Vec<Message>,
}

impl Delivery {
    /// Deliver, waking the subscriber at most **once**, at the end.
    /// `false`: the local subscriber is gone — tell the core
    /// ([`ClientCore::drop_sub`]).
    pub(crate) fn run(self) -> bool {
        for message in self.messages {
            if !self.handle.deliver(message) {
                return false;
            }
        }
        self.handle.wake();
        true
    }
}

/// A connection's protocol state, driven without sockets — see the
/// module docs. Local ids of subscriptions are the seq of the
/// SUBSCRIBE that opened them.
pub(crate) struct ClientCore {
    seq: u64,
    pending: HashMap<u64, Waiter>,
    /// Every live subscription, by local id.
    subs: HashMap<u64, RemoteSub>,
    /// The current link's server-assigned ids → local ids. An entry of
    /// `subs` missing here is re-issued at the next connect.
    by_server: HashMap<u64, u64>,
    /// Wire bytes and count of un-acknowledged pipelined publishes.
    inflight_bytes: usize,
    inflight: usize,
    /// Pipelined publishes lost since the last flush.
    lost: u64,
    /// Every APPEND not receipted yet, by seq, in send order: what a
    /// connect re-sends.
    kept: VecDeque<(u64, Message)>,
    /// Encoded frames the reactor has not taken yet, in send order.
    outbound: Vec<u8>,
    /// The blocking requests whose frames are still in `outbound`.
    unsent: Vec<(u64, Range<usize>)>,
    /// The reactor has been rung for `outbound` and not taken it yet.
    rung: bool,
    link_up: bool,
    closed: bool,
    /// Next redial delay after a failed attempt.
    backoff: Duration,
    reconnect_cap: Duration,
    /// xorshift64 state for backoff jitter.
    jitter: u64,
    flush_timeout: Duration,
}

impl ClientCore {
    pub(crate) fn new(jitter: u64, reconnect_cap: Duration) -> ClientCore {
        ClientCore {
            seq: 0,
            pending: HashMap::new(),
            subs: HashMap::new(),
            by_server: HashMap::new(),
            inflight_bytes: 0,
            inflight: 0,
            lost: 0,
            kept: VecDeque::new(),
            outbound: Vec::new(),
            unsent: Vec::new(),
            rung: false,
            link_up: false,
            closed: false,
            backoff: RECONNECT_BASE,
            reconnect_cap,
            jitter,
            flush_timeout: DEFAULT_FLUSH_TIMEOUT,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn queue(&mut self, frame: Vec<u8>) {
        self.outbound.extend_from_slice(&frame);
    }

    /// Queue a blocking request with its waiter; returns its seq.
    fn submit(&mut self, make: impl FnOnce(u64) -> Frame, waiter: Waiter) -> Result<u64, MqError> {
        if self.closed {
            return Err(MqError::Disconnected);
        }
        let seq = self.next_seq();
        let frame = encode(&make(seq))?;
        let start = self.outbound.len();
        self.queue(frame);
        self.unsent.push((seq, start..self.outbound.len()));
        self.pending.insert(seq, waiter);
        Ok(seq)
    }

    /// Queue one pipelined publish and take its share of the window
    /// (the caller waits for room first: [`ClientCore::window_full`]).
    fn publish(
        &mut self,
        topic: String,
        key: Option<bytes::Bytes>,
        payload: bytes::Bytes,
    ) -> Result<(), MqError> {
        if self.closed {
            return Err(MqError::Disconnected);
        }
        let seq = self.next_seq();
        let frame = encode(&Frame::Publish {
            seq,
            topic,
            key,
            payload,
        })?;
        self.pending
            .insert(seq, Waiter::Pipelined { bytes: frame.len() });
        self.inflight_bytes += frame.len();
        self.inflight += 1;
        self.queue(frame);
        self.window_moved();
        Ok(())
    }

    /// Queue one APPEND of a record the caller numbered and take its
    /// share of the window, like [`ClientCore::publish`]; the record is
    /// kept until its receipt. While no link is up it is only kept: the
    /// connect sends it.
    fn append(&mut self, record: Message) -> Result<(), MqError> {
        if self.closed {
            return Err(MqError::Disconnected);
        }
        let seq = self.next_seq();
        let offset = record.offset;
        let frame = encode(&Frame::Append {
            seq,
            record: record.clone(),
        })?;
        let bytes = frame.len();
        if self.link_up {
            self.queue(frame);
        }
        self.pending.insert(seq, Waiter::Append { bytes, offset });
        self.inflight_bytes += bytes;
        self.inflight += 1;
        self.kept.push_back((seq, record));
        self.window_moved();
        Ok(())
    }

    /// APPEND `seq` is answered: it is kept no more.
    fn unkeep(&mut self, seq: u64) {
        while self.kept.front().is_some_and(|(kept, _)| *kept <= seq) {
            self.kept.pop_front();
        }
    }

    fn window_full(&self) -> bool {
        self.inflight_bytes >= PIPELINE_WINDOW_BYTES
    }

    fn append_window_full(&self) -> bool {
        self.inflight_bytes >= APPEND_WINDOW_BYTES
    }

    /// Mirror the window into its gauges — plain stores, cheaper than a
    /// fetch-add on a line the publisher and loop threads both write.
    fn window_moved(&self) {
        let m = client_metrics();
        m.inflight_bytes.set(self.inflight_bytes as u64);
        m.inflight.set(self.inflight as u64);
    }

    /// Release the window share of `publishes` pipelined publishes
    /// holding `bytes`; `lost` records them on the ledger.
    fn release(&mut self, publishes: usize, bytes: usize, lost: bool) {
        self.inflight_bytes = self.inflight_bytes.saturating_sub(bytes);
        self.inflight = self.inflight.saturating_sub(publishes);
        self.window_moved();
        if lost {
            self.lost += publishes as u64;
            client_metrics().lost.add(publishes as u64);
        }
    }

    /// What [`Broker::flush`] returns once no publish is in flight
    /// (`None` before): `Ok`, or the loss ledger, which it clears.
    #[cfg(test)]
    fn flushed(&mut self) -> Option<Result<(), MqError>> {
        self.flushed_to(u64::MAX)
    }

    /// Whether an APPEND up to seq `last` is still kept: not receipted.
    fn appending_to(&self, last: u64) -> bool {
        self.kept.front().is_some_and(|(seq, _)| *seq <= last)
    }

    /// [`ClientCore::flushed`] once no pipelined publish is in flight and
    /// no APPEND up to seq `last` is kept: an only writer that goes on
    /// appending does not hold up a flush of what it appended before.
    fn flushed_to(&mut self, last: u64) -> Option<Result<(), MqError>> {
        if self.inflight > self.kept.len() || self.appending_to(last) {
            return None;
        }
        Some(match std::mem::take(&mut self.lost) {
            0 => Ok(()),
            lost => Err(MqError::Remote {
                message: format!("{lost} pipelined publish(es) lost before acknowledgement"),
            }),
        })
    }

    /// Whether queued bytes need the reactor rung (at most once until it
    /// takes them).
    fn ring(&mut self) -> bool {
        let ring = !self.rung && !self.outbound.is_empty();
        self.rung |= ring;
        ring
    }

    /// Move the bytes queued for the link onto `out`, in order; they
    /// have left. The buffer keeps its capacity, so a writer that queues
    /// a window of APPENDs per round trip does not allocate a new one
    /// each time: on a 4000-task TCP chain, whose daemon shares the
    /// process's one malloc arena, handing the buffer over instead left
    /// the process's peak RSS ≈ 0.1 MiB higher (9 of 10 runs).
    pub(crate) fn move_outbound(&mut self, out: &mut Outbox) {
        self.rung = false;
        self.unsent.clear();
        out.push(&self.outbound);
        self.outbound.clear();
    }

    /// [`ClientCore::move_outbound`] into bytes of their own.
    #[cfg(test)]
    pub(crate) fn take_outbound(&mut self) -> Vec<u8> {
        let mut out = Outbox::default();
        self.move_outbound(&mut out);
        out.take()
    }

    /// The answer to blocking request `seq`, once it is in.
    fn take_answer(&mut self, seq: u64) -> Option<Result<Frame, MqError>> {
        if !matches!(self.pending.get(&seq), Some(Waiter::Done(_))) {
            return None;
        }
        match self.pending.remove(&seq) {
            Some(Waiter::Done(answer)) => Some(*answer),
            _ => None,
        }
    }

    /// Blocking request `seq` reached its timeout: take its answer if
    /// it is in, else withdraw its frame if it has not left, else
    /// abandon it.
    fn give_up(&mut self, seq: u64) -> Result<Frame, MqError> {
        if let Some(answer) = self.take_answer(seq) {
            return answer;
        }
        match self.unsent.iter().position(|(s, _)| *s == seq) {
            Some(i) => {
                let (_, span) = self.unsent.remove(i);
                let len = span.len();
                self.outbound.drain(span);
                for (_, later) in &mut self.unsent[i..] {
                    *later = later.start - len..later.end - len;
                }
                self.pending.remove(&seq);
            }
            None => {
                self.pending.insert(seq, Waiter::Abandoned);
            }
        }
        Err(MqError::Timeout)
    }

    /// Queue an UNSUBSCRIBE, only if a link is up: a server-assigned id
    /// means nothing on the next connection.
    fn unsubscribe(&mut self, sub: u64) {
        if self.link_up {
            if let Ok(frame) = (Frame::Unsubscribe { seq: 0, sub }).encode() {
                self.queue(frame);
            }
        }
    }

    fn register(&mut self, local: u64, sub: u64) {
        if self.by_server.insert(sub, local).is_none() {
            client_metrics().subscriptions.add(1);
        }
    }

    /// The local subscriber of `sub` is gone: forget it and tell the
    /// server.
    pub(crate) fn drop_sub(&mut self, sub: u64) {
        if let Some(local) = self.by_server.remove(&sub) {
            client_metrics().subscriptions.sub(1);
            self.subs.remove(&local);
            self.unsubscribe(sub);
        }
    }

    /// Release everything held for `run`'s subscriptions — see
    /// [`RemoteBroker::close_run`].
    fn forget_run(&mut self, run: &str) {
        self.subs
            .retain(|_, entry| ginflow_mq::namespace::run_of(&entry.topic) != Some(run));
        let (before, subs) = (self.by_server.len(), &self.subs);
        self.by_server.retain(|_, local| subs.contains_key(local));
        client_metrics()
            .subscriptions
            .sub((before - self.by_server.len()) as u64);
    }

    /// A link is up: queue a re-subscription of every table entry ahead
    /// of anything queued during the outage, from the lowest unseen
    /// offset (old server-assigned ids mean nothing on this link), then
    /// every kept APPEND, in send order under its own seq.
    pub(crate) fn on_connected(&mut self) {
        self.link_up = true;
        self.backoff = RECONNECT_BASE;
        let mut batch = Vec::new();
        for (&local, entry) in &self.subs {
            self.seq += 1;
            let frame = Frame::Subscribe {
                seq: self.seq,
                topic: entry.topic.clone(),
                mode: entry.resume_mode(),
            };
            // A topic that subscribed once encodes; were it not to, the
            // entry stays unregistered and the next connect retries it.
            if let Ok(buf) = frame.encode() {
                batch.extend_from_slice(&buf);
                self.pending.insert(self.seq, Waiter::Resubscribe(local));
            }
        }
        for (seq, record) in &self.kept {
            let frame = Frame::Append {
                seq: *seq,
                record: record.clone(),
            };
            // It encoded when it was first queued.
            if let Ok(buf) = frame.encode() {
                batch.extend_from_slice(&buf);
            }
        }
        if !batch.is_empty() {
            for (_, span) in &mut self.unsent {
                *span = span.start + batch.len()..span.end + batch.len();
            }
            batch.append(&mut self.outbound);
            self.outbound = batch;
        }
    }

    /// The link died (or the client closed): every byte queued goes,
    /// every request in flight fails — pipelined publishes onto the
    /// ledger — and every subscription awaits re-issue. An APPEND is
    /// kept for the next link, unless the client is closed: then it is
    /// lost like a pipelined publish.
    fn fail_link(&mut self) {
        self.link_up = false;
        self.outbound.clear();
        self.unsent.clear();
        let closed = self.closed;
        if closed {
            self.kept.clear();
        }
        let (mut lost, mut lost_bytes) = (0, 0);
        self.pending.retain(|_, waiter| match waiter {
            Waiter::Append { .. } if !closed => true,
            Waiter::Append { bytes, .. } => {
                lost += 1;
                lost_bytes += *bytes;
                false
            }
            Waiter::Reply | Waiter::Subscribe(_) => {
                *waiter = Waiter::Done(Box::new(Err(MqError::Disconnected)));
                true
            }
            Waiter::Done(_) => true,
            Waiter::Pipelined { bytes } => {
                lost += 1;
                lost_bytes += *bytes;
                false
            }
            Waiter::Resubscribe(_) | Waiter::Abandoned => false,
        });
        if lost > 0 {
            self.release(lost, lost_bytes, true);
        }
        client_metrics()
            .subscriptions
            .sub(self.by_server.len() as u64);
        self.by_server.clear();
    }

    /// The link died: see `fail_link`. Returns when to redial — at once,
    /// with the ladder reset — unless the client is closed.
    pub(crate) fn on_lost(&mut self, now: Instant) -> Option<Instant> {
        self.fail_link();
        self.backoff = RECONNECT_BASE;
        (!self.closed).then_some(now)
    }

    /// A redial failed: when to try again. Equal-jitter backoff — sleep
    /// `ladder/2 + uniform(0..=ladder/2)`, clamped to the cap — spreads
    /// N clients severed by one daemon restart over half the ladder
    /// instead of redialing in lockstep; the ladder then doubles up to
    /// the cap.
    pub(crate) fn next_redial(&mut self, now: Instant) -> Instant {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let d = self.backoff.min(self.reconnect_cap);
        let half_us = d.as_micros() as u64 / 2;
        let sleep = (d / 2 + Duration::from_micros(x % (half_us + 1))).min(self.reconnect_cap);
        self.backoff = (self.backoff * 2).min(self.reconnect_cap);
        now + sleep
    }

    /// Refuse new requests and fail the ones in flight; `true` the
    /// first time.
    fn close(&mut self) -> bool {
        let first = !std::mem::replace(&mut self.closed, true);
        self.fail_link();
        first
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Handle one frame from the server; an EVENTS frame may yield a
    /// delivery.
    pub(crate) fn on_frame(&mut self, frame: Frame) -> Option<Delivery> {
        match frame {
            Frame::Events { sub, mut messages } => {
                let entry = self.subs.get_mut(self.by_server.get(&sub)?)?;
                messages.retain(|message| entry.admit(message));
                return (!messages.is_empty()).then(|| Delivery {
                    sub,
                    handle: entry.handle.clone(),
                    messages,
                });
            }
            Frame::Subscribed { seq, sub, resume } => self.on_subscribed(seq, sub, resume),
            Frame::ReceiptList {
                seq_first,
                receipts,
            } => self.on_receipts(seq_first, receipts),
            Frame::Error { seq, message } => self.answer(seq, Err(MqError::Remote { message })),
            Frame::Messages { seq, .. }
            | Frame::InfoReply { seq, .. }
            | Frame::RunListReply { seq, .. }
            | Frame::RunGcReply { seq, .. }
            | Frame::StatsReply { seq, .. } => self.answer(seq, Ok(frame)),
            // Clients never receive request frames; ignore.
            Frame::Publish { .. }
            | Frame::Append { .. }
            | Frame::Subscribe { .. }
            | Frame::Unsubscribe { .. }
            | Frame::Fetch { .. }
            | Frame::Info { .. }
            | Frame::RunList { .. }
            | Frame::RunClose { .. }
            | Frame::RunGc { .. }
            | Frame::Stats { .. } => {}
        }
        None
    }

    fn on_subscribed(&mut self, seq: u64, sub: u64, resume: u64) {
        match self.pending.remove(&seq) {
            Some(Waiter::Subscribe(mut entry)) => {
                entry.seed_watermark(resume);
                self.subs.insert(seq, *entry);
                self.register(seq, sub);
                let reply = Ok(Frame::Subscribed { seq, sub, resume });
                self.pending.insert(seq, Waiter::Done(Box::new(reply)));
            }
            Some(Waiter::Resubscribe(local)) => match self.subs.get_mut(&local) {
                Some(entry) => {
                    entry.seed_watermark(resume);
                    self.register(local, sub);
                }
                // Its run was closed meanwhile.
                None => self.unsubscribe(sub),
            },
            Some(Waiter::Abandoned) => self.unsubscribe(sub),
            Some(other) => {
                self.pending.insert(seq, other);
                self.answer(seq, Ok(Frame::Subscribed { seq, sub, resume }));
            }
            None => {}
        }
    }

    /// Expand one RECEIPT_LIST — `receipts` in seq order from
    /// `seq_first` — back into per-seq receipts: the pipelined
    /// publishes' window bytes released together, every blocking
    /// publisher handed its own exact receipt as a list of one. An
    /// APPEND whose receipt names another offset than its own was
    /// refused: it goes on the ledger.
    fn on_receipts(&mut self, seq_first: u64, receipts: Vec<Receipt>) {
        let (mut acked, mut acked_bytes) = (0, 0);
        for (seq, receipt) in (seq_first..).zip(receipts) {
            match self.pending.remove(&seq) {
                Some(Waiter::Pipelined { bytes }) => {
                    acked += 1;
                    acked_bytes += bytes;
                }
                Some(Waiter::Append { bytes, offset }) => {
                    self.unkeep(seq);
                    if receipt.offset == offset {
                        acked += 1;
                        acked_bytes += bytes;
                    } else {
                        self.release(1, bytes, true);
                    }
                }
                Some(other) => {
                    self.pending.insert(seq, other);
                    let receipts = vec![receipt];
                    self.answer(
                        seq,
                        Ok(Frame::ReceiptList {
                            seq_first: seq,
                            receipts,
                        }),
                    );
                }
                None => {}
            }
        }
        if acked > 0 {
            self.release(acked, acked_bytes, false);
        }
    }

    /// Route a reply (or the server's error) to the waiter of `seq`.
    fn answer(&mut self, seq: u64, reply: Result<Frame, MqError>) {
        let Some(waiter) = self.pending.remove(&seq) else {
            return;
        };
        let done = match waiter {
            Waiter::Reply => reply,
            Waiter::Subscribe(_) => reply.and_then(|frame| Err(protocol_error(&frame))),
            // Answered already: the first answer stands.
            Waiter::Done(first) => *first,
            // A failed re-subscription dies quietly, like a local
            // subscription whose broker went away.
            Waiter::Resubscribe(local) => {
                self.subs.remove(&local);
                return;
            }
            // A refused pipelined publish surfaces on the next flush; a
            // reply that is not a receipt is server nonsense, released
            // either way.
            Waiter::Pipelined { bytes } => {
                self.release(1, bytes, reply.is_err());
                return;
            }
            // A refused APPEND: nothing to re-send.
            Waiter::Append { bytes, .. } => {
                self.unkeep(seq);
                self.release(1, bytes, true);
                return;
            }
            Waiter::Abandoned => return,
        };
        self.pending.insert(seq, Waiter::Done(Box::new(done)));
    }
}

pub(crate) struct ClientInner {
    /// Dials a fresh transport to the daemon — the reconnect seam.
    /// TCP for [`RemoteBroker::connect`]; anything (an in-process
    /// socketpair, a fault-injecting wrapper) for
    /// [`RemoteBroker::connect_with`].
    connector: Connector,
    /// This connection's seat on the shared reactor loop.
    conn: ConnHandle,
    pub(crate) core: Mutex<ClientCore>,
    /// Notified whenever a waiter may proceed: an answer is in, window
    /// bytes were released, the link was lost or the client closed.
    pub(crate) changed: Condvar,
}

impl ClientInner {
    /// Invoke the connector — the reactor's redial seam.
    pub(crate) fn dial(&self) -> std::io::Result<Box<dyn Transport>> {
        (self.connector)()
    }

    /// Queue a blocking request, ring the reactor, and wait for the
    /// answer — or give the request up at [`REQUEST_TIMEOUT`].
    fn request(&self, make: impl FnOnce(u64) -> Frame, waiter: Waiter) -> Result<Frame, MqError> {
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        let (seq, ring) = {
            let mut core = self.core.lock();
            (core.submit(make, waiter)?, core.ring())
        };
        if ring {
            self.conn.kick();
        }
        let mut core = self.core.lock();
        loop {
            if let Some(answer) = core.take_answer(seq) {
                return answer;
            }
            let now = Instant::now();
            if now >= deadline {
                return core.give_up(seq);
            }
            self.changed.wait_for(&mut core, deadline - now);
        }
    }

    /// Wait up to [`RECONNECT_GRACE`] for room in the pipeline window
    /// (`full` says when there is none), after ringing for what is
    /// queued: acks of frames that never left cannot drain it.
    fn wait_for_window(
        &self,
        core: &mut MutexGuard<'_, ClientCore>,
        full: fn(&ClientCore) -> bool,
    ) -> Result<(), MqError> {
        if core.ring() {
            self.conn.kick();
        }
        let deadline = Instant::now() + RECONNECT_GRACE;
        while full(core) && !core.is_closed() {
            let now = Instant::now();
            if now >= deadline {
                return Err(MqError::Timeout);
            }
            self.changed.wait_for(core, deadline - now);
        }
        Ok(())
    }
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
        let inner = Arc::new(ClientInner {
            connector,
            conn: ConnHandle::acquire()?,
            core: Mutex::new(ClientCore::new(jitter_seed(), reconnect_cap())),
            changed: Condvar::new(),
        });
        inner.conn.register(stream, inner.clone());
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
    /// also runs on drop. Whatever was still pending — pipelined
    /// publishes included — fails at once, so window waiters and
    /// flushers unblock instead of timing out against a closed
    /// connection.
    pub fn shutdown(&self) {
        let first = self.inner.core.lock().close();
        self.inner.changed.notify_all();
        if first {
            // Deregistering closes the socket and, if this was the last
            // connection, lets the shared loop retire itself.
            self.inner.conn.close();
        }
    }

    /// Bound how long one [`Broker::flush`] call may wait for the
    /// pipeline to drain before returning [`MqError::FlushTimeout`].
    /// Defaults to [`DEFAULT_FLUSH_TIMEOUT`]; sub-millisecond durations
    /// round up to 1 ms so the bound stays finite and nonzero.
    pub fn set_flush_timeout(&self, timeout: Duration) {
        let ms = (timeout.as_millis() as u64).max(1);
        self.inner.core.lock().flush_timeout = Duration::from_millis(ms);
    }

    /// Round trip returning the reply frame (or the server's error).
    fn call(&self, make: impl FnOnce(u64) -> Frame) -> Result<Frame, MqError> {
        self.inner.request(make, Waiter::Reply)
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
                self.inner.core.lock().forget_run(run);
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

fn protocol_error(frame: &Frame) -> MqError {
    MqError::Remote {
        message: format!("unexpected reply frame {frame:?}"),
    }
}

/// Encode a request frame. A frame the codec refuses (oversized
/// payload) is the *caller's* error and never reaches the connection.
fn encode(frame: &Frame) -> Result<Vec<u8>, MqError> {
    frame.encode().map_err(|e| MqError::Remote {
        message: e.to_string(),
    })
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

    /// Pipelined publish of a batch: under **one** lock of the core
    /// every item is encoded, takes its share of the window
    /// ([`PIPELINE_WINDOW_BYTES`]; the call blocks only while that is
    /// full) and is queued, then the reactor is rung once — no round
    /// trip. Receipts are consumed asynchronously by the reactor loop,
    /// which releases the window bytes; the daemon acks a batch with
    /// one RECEIPT_LIST. Frames go out on the same socket in batch
    /// order behind whatever this client queued before, so per-topic
    /// FIFO ordering holds exactly as for the blocking path.
    ///
    /// An item that cannot be queued — a payload the codec refuses, a
    /// full window that never drained — fails alone: the rest of the
    /// batch is still queued, and the call returns the first error.
    fn publish_many_nowait(
        &self,
        batch: Vec<(String, Option<bytes::Bytes>, bytes::Bytes)>,
    ) -> Result<(), MqError> {
        let mut first_error = None;
        let mut core = self.inner.core.lock();
        for (topic, key, payload) in batch {
            let room = if core.window_full() {
                self.inner
                    .wait_for_window(&mut core, ClientCore::window_full)
            } else {
                Ok(())
            };
            if let Err(e) = room.and_then(|()| core.publish(topic, key, payload)) {
                first_error.get_or_insert(e);
            }
        }
        let ring = core.ring();
        drop(core);
        if ring {
            self.inner.conn.kick();
        }
        first_error.map_or(Ok(()), Err)
    }

    /// The records of their topics' only writer, queued like
    /// [`RemoteBroker::publish_many_nowait`]'s batch — under one lock of
    /// the core — as APPEND frames the core keeps until receipted: a
    /// connection lost meanwhile re-sends them on the next, and the
    /// daemon skips what it appended already, so the daemon's log ends
    /// up with each record once, at its offset. Each waits for room
    /// under [`APPEND_WINDOW_BYTES`] first; one that waited out
    /// [`RECONNECT_GRACE`] in vain is kept all the same — dropping it
    /// would leave a gap no later record could cross.
    ///
    /// The reactor is rung only by a batch that finds no APPEND in
    /// flight (Nagle's rule): otherwise the receipt of the one in flight
    /// brings the reactor back, and it sends what was queued meanwhile
    /// then. So a record waits at most one round trip, and a writer that
    /// appends faster than the daemon answers wakes the reactor once per
    /// round trip, not once per batch.
    fn append_many(&self, batch: Vec<Message>) -> Result<(), MqError> {
        let mut first_error = None;
        let mut core = self.inner.core.lock();
        let idle = core.kept.is_empty();
        for record in batch {
            if core.append_window_full() {
                let _ = self
                    .inner
                    .wait_for_window(&mut core, ClientCore::append_window_full);
            }
            if let Err(e) = core.append(record) {
                first_error.get_or_insert(e);
            }
        }
        let ring = idle && core.ring();
        drop(core);
        if ring {
            self.inner.conn.kick();
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Wait until every APPEND made before the call is receipted or
    /// refused — the ledger's concern, which this leaves alone — or the
    /// client closes. Plain publishes are not waited for. Runs out after
    /// the flush timeout, as a [`MqError::FlushTimeout`].
    fn wait_appended(&self) -> Result<(), MqError> {
        let start = Instant::now();
        let mut core = self.inner.core.lock();
        let deadline = start + core.flush_timeout;
        let last = core.seq;
        if core.ring() {
            self.inner.conn.kick();
        }
        while core.appending_to(last) && !core.is_closed() {
            let now = Instant::now();
            if now >= deadline {
                return Err(MqError::FlushTimeout {
                    inflight: core.kept.len() as u64,
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            self.inner.changed.wait_for(&mut core, deadline - now);
        }
        Ok(())
    }

    /// Wait until every pipelined publish, and every APPEND made before
    /// the call, has been acknowledged. Reports (and clears) the loss
    /// ledger: publishes that died un-acked with a severed connection or
    /// were refused by the server since the previous flush.
    fn flush(&self) -> Result<(), MqError> {
        let start = Instant::now();
        let mut core = self.inner.core.lock();
        let deadline = start + core.flush_timeout;
        let last = core.seq;
        if core.ring() {
            self.inner.conn.kick();
        }
        loop {
            if let Some(flushed) = core.flushed_to(last) {
                return flushed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(MqError::FlushTimeout {
                    inflight: core.inflight as u64,
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            self.inner.changed.wait_for(&mut core, deadline - now);
        }
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        let (handle, subscription) = subscription_pair();
        let entry = RemoteSub {
            topic: topic.to_owned(),
            origin_mode: mode,
            handle: Arc::new(handle),
            next_offset: HashMap::new(),
        };
        self.inner.request(
            |seq| Frame::Subscribe {
                seq,
                topic: topic.to_owned(),
                mode,
            },
            Waiter::Subscribe(Box::new(entry)),
        )?;
        Ok(subscription)
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

#[cfg(test)]
mod tests {
    //! The core driven with no socket, thread or sleep: frames in,
    //! bytes and deliveries out.
    use super::*;
    use bytes::Bytes;
    use ginflow_mq::wire::{FrameSplitter, NO_RESUME};

    fn connected() -> ClientCore {
        let mut core = ClientCore::new(1, Duration::from_secs(2));
        core.on_connected();
        core
    }

    /// Decode everything the core queued for the link.
    fn sent(core: &mut ClientCore) -> Vec<Frame> {
        let mut splitter = FrameSplitter::default();
        splitter.push(&core.take_outbound());
        std::iter::from_fn(|| splitter.next_frame().unwrap()).collect()
    }

    fn publish(core: &mut ClientCore, topic: &str) {
        core.publish(topic.into(), None, Bytes::from_static(b"p"))
            .unwrap();
    }

    /// A blocking INFO request; returns its seq.
    fn info(core: &mut ClientCore) -> u64 {
        let info = |seq| Frame::Info {
            seq,
            topic: "i".into(),
        };
        core.submit(info, Waiter::Reply).unwrap()
    }

    /// A SUBSCRIBE whose frame has left; returns its seq.
    fn subscribe(core: &mut ClientCore, topic: &str, mode: SubscribeMode) -> (u64, Subscription) {
        let (handle, subscription) = subscription_pair();
        let entry = RemoteSub {
            topic: topic.into(),
            origin_mode: mode,
            handle: Arc::new(handle),
            next_offset: HashMap::new(),
        };
        let frame = |seq| Frame::Subscribe {
            seq,
            topic: topic.into(),
            mode,
        };
        let seq = core
            .submit(frame, Waiter::Subscribe(Box::new(entry)))
            .unwrap();
        sent(core);
        (seq, subscription)
    }

    /// A subscription registered under server id `sub`.
    fn subscribed(
        core: &mut ClientCore,
        mode: SubscribeMode,
        sub: u64,
        resume: u64,
    ) -> Subscription {
        let (seq, subscription) = subscribe(core, "t", mode);
        assert!(core
            .on_frame(Frame::Subscribed { seq, sub, resume })
            .is_none());
        assert!(matches!(
            core.take_answer(seq),
            Some(Ok(Frame::Subscribed { .. }))
        ));
        subscription
    }

    fn events(core: &mut ClientCore, sub: u64, offsets: &[(u32, u64)]) -> Vec<(u32, u64)> {
        let messages = offsets
            .iter()
            .map(|&(partition, offset)| Message {
                topic: "t".into(),
                partition,
                offset,
                key: None,
                payload: Bytes::from_static(b"m"),
            })
            .collect();
        core.on_frame(Frame::Events { sub, messages })
            .map(|d| d.messages.iter().map(|m| (m.partition, m.offset)).collect())
            .unwrap_or_default()
    }

    /// The mode of each SUBSCRIBE the next connect re-issues.
    fn resumed(core: &mut ClientCore) -> Vec<SubscribeMode> {
        core.on_lost(Instant::now());
        core.on_connected();
        sent(core)
            .into_iter()
            .map(|frame| match frame {
                Frame::Subscribe { mode, .. } => mode,
                other => panic!("not a re-subscription: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn resubscribes_precede_frames_queued_during_the_outage() {
        let mut core = connected();
        let _sub = subscribed(&mut core, SubscribeMode::Beginning, 7, NO_RESUME);
        assert!(core.on_lost(Instant::now()).is_some());
        publish(&mut core, "out");
        info(&mut core);
        core.on_connected();
        let frames = sent(&mut core);
        assert!(matches!(&frames[0], Frame::Subscribe { topic, .. } if topic == "t"));
        assert!(matches!(&frames[1], Frame::Publish { topic, .. } if topic == "out"));
        assert!(matches!(frames[2], Frame::Info { .. }));
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn a_resubscribe_in_flight_at_a_loss_is_reissued_at_the_next_connect() {
        let mut core = connected();
        let _sub = subscribed(&mut core, SubscribeMode::Beginning, 7, NO_RESUME);
        assert_eq!(resumed(&mut core).len(), 1);
        // The link dies again before the re-subscription is answered.
        let modes = resumed(&mut core);
        assert_eq!(modes, [SubscribeMode::Beginning]);
        let seq = core.seq;
        core.on_frame(Frame::Subscribed {
            seq,
            sub: 9,
            resume: NO_RESUME,
        });
        assert_eq!(events(&mut core, 9, &[(0, 0)]), [(0, 0)]);
        assert!(events(&mut core, 7, &[(0, 1)]).is_empty(), "old id is dead");
    }

    #[test]
    fn a_subscription_resumes_from_its_lowest_unseen_offset() {
        let mut core = connected();
        let _sub = subscribed(&mut core, SubscribeMode::Beginning, 1, 5);
        assert_eq!(resumed(&mut core), [SubscribeMode::Beginning], "not seeded");
        let seq = core.seq;
        core.on_frame(Frame::Subscribed {
            seq,
            sub: 2,
            resume: 5,
        });
        events(&mut core, 2, &[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(resumed(&mut core), [SubscribeMode::FromOffset(1)]);

        // A head-attached subscription resumes where it attached, even
        // with nothing delivered…
        let mut core = connected();
        let _sub = subscribed(&mut core, SubscribeMode::Latest, 1, 5);
        assert_eq!(resumed(&mut core), [SubscribeMode::FromOffset(5)]);
        // …unless the server had no watermark to give.
        let mut core = connected();
        let _sub = subscribed(&mut core, SubscribeMode::Latest, 1, NO_RESUME);
        assert_eq!(resumed(&mut core), [SubscribeMode::Latest]);
    }

    #[test]
    fn a_replay_duplicate_below_the_watermark_is_absorbed() {
        let mut core = connected();
        let _sub = subscribed(&mut core, SubscribeMode::Beginning, 3, NO_RESUME);
        assert_eq!(events(&mut core, 3, &[(0, 0), (0, 1)]), [(0, 0), (0, 1)]);
        assert_eq!(
            events(&mut core, 3, &[(0, 1), (0, 2), (1, 0)]),
            [(0, 2), (1, 0)]
        );
        assert!(events(&mut core, 3, &[(0, 0), (1, 0)]).is_empty());
    }

    #[test]
    fn a_receipt_list_releases_exactly_its_publishes_window_bytes() {
        let mut core = connected();
        publish(&mut core, "a");
        publish(&mut core, "bb");
        let blocking = info(&mut core);
        publish(&mut core, "a-longer-topic");
        let last = sent(&mut core).pop().unwrap().encode().unwrap().len();
        assert_eq!(core.inflight, 3);
        let receipt = Receipt {
            partition: 0,
            offset: 0,
        };
        core.on_frame(Frame::ReceiptList {
            seq_first: 1,
            receipts: vec![receipt; 3],
        });
        assert_eq!((core.inflight, core.inflight_bytes), (1, last));
        assert!(matches!(
            core.take_answer(blocking),
            Some(Ok(Frame::ReceiptList { seq_first, .. })) if seq_first == blocking
        ));
        core.on_frame(Frame::ReceiptList {
            seq_first: 4,
            receipts: vec![receipt],
        });
        assert_eq!((core.inflight, core.inflight_bytes), (0, 0));
        assert!(core.flushed().unwrap().is_ok());
    }

    #[test]
    fn publishes_unacked_at_a_loss_reach_the_ledger_exactly_once() {
        let mut core = connected();
        publish(&mut core, "a");
        publish(&mut core, "a");
        sent(&mut core);
        assert!(core.flushed().is_none(), "in flight");
        core.on_lost(Instant::now());
        // A late receipt (it cannot come, on a dead link) and a second
        // loss count nothing more.
        core.on_frame(Frame::ReceiptList {
            seq_first: 1,
            receipts: vec![
                Receipt {
                    partition: 0,
                    offset: 0
                };
                2
            ],
        });
        core.on_connected();
        core.on_lost(Instant::now());
        match core.flushed() {
            Some(Err(MqError::Remote { message })) => {
                assert!(message.starts_with("2 pipelined publish"), "{message}")
            }
            other => panic!("loss not reported: {other:?}"),
        }
        assert!(core.flushed().unwrap().is_ok(), "the report clears it");
        assert!(core.take_outbound().is_empty(), "nothing is replayed");
    }

    #[test]
    fn an_abandoned_subscribes_late_ack_is_torn_down_only_while_a_link_is_up() {
        let mut core = connected();
        let (seq, _sub) = subscribe(&mut core, "t", SubscribeMode::Latest);
        assert!(matches!(core.give_up(seq), Err(MqError::Timeout)));
        core.on_frame(Frame::Subscribed {
            seq,
            sub: 5,
            resume: 0,
        });
        assert!(matches!(
            sent(&mut core)[..],
            [Frame::Unsubscribe { sub: 5, .. }]
        ));
        assert!(core.pending.is_empty() && core.by_server.is_empty());

        let (seq, _sub) = subscribe(&mut core, "t", SubscribeMode::Latest);
        assert!(matches!(core.give_up(seq), Err(MqError::Timeout)));
        core.on_lost(Instant::now());
        core.on_frame(Frame::Subscribed {
            seq,
            sub: 6,
            resume: 0,
        });
        core.on_connected();
        assert!(
            sent(&mut core).is_empty(),
            "a stale id rode to a fresh link"
        );
    }

    #[test]
    fn a_timed_out_request_takes_its_unsent_frame_with_it() {
        // The link is down: everything waits in the queue.
        let mut core = connected();
        core.on_lost(Instant::now());
        publish(&mut core, "before");
        let doomed = core
            .submit(
                |seq| Frame::RunClose {
                    seq,
                    run: "r".into(),
                },
                Waiter::Reply,
            )
            .unwrap();
        publish(&mut core, "after");
        assert!(matches!(core.give_up(doomed), Err(MqError::Timeout)));
        assert!(!core.pending.contains_key(&doomed));
        core.on_connected();
        let topics: Vec<String> = sent(&mut core)
            .into_iter()
            .map(|frame| match frame {
                Frame::Publish { topic, .. } => topic,
                other => panic!("the withdrawn request was sent: {other:?}"),
            })
            .collect();
        assert_eq!(topics, ["before", "after"]);

        // One whose frame left is abandoned: its late reply is ignored.
        let left = info(&mut core);
        sent(&mut core);
        assert!(matches!(core.give_up(left), Err(MqError::Timeout)));
        core.on_frame(Frame::InfoReply {
            seq: left,
            persistent: true,
            partitions: 1,
            retained: 0,
        });
        assert!(!core.pending.contains_key(&left));
    }

    #[test]
    fn a_loss_fails_requests_and_the_ladder_backs_off_to_its_cap() {
        let mut core = connected();
        let seq = info(&mut core);
        let now = Instant::now();
        assert_eq!(core.on_lost(now), Some(now), "first redial is immediate");
        assert!(matches!(
            core.take_answer(seq),
            Some(Err(MqError::Disconnected))
        ));
        let cap = core.reconnect_cap;
        let mut ladder = RECONNECT_BASE;
        for _ in 0..10 {
            let wait = core.next_redial(now) - now;
            assert!(
                wait >= ladder.min(cap) / 2 && wait <= ladder.min(cap),
                "{wait:?}"
            );
            ladder *= 2;
        }
        core.on_connected();
        assert!(core.next_redial(now) - now <= RECONNECT_BASE, "reset");
        assert!(core.close());
        assert!(!core.close(), "closes once");
        assert_eq!(core.on_lost(now), None, "a closed client never redials");
        assert!(matches!(
            info_after_close(&mut core),
            Err(MqError::Disconnected)
        ));
    }

    fn info_after_close(core: &mut ClientCore) -> Result<u64, MqError> {
        core.submit(|seq| Frame::RunList { seq }, Waiter::Reply)
    }

    /// A client core and the real daemon core back to back over a log
    /// broker: the bytes each queues are split into frames and fed to
    /// the other, with no socket. `cut` frames after the start (either
    /// direction), the link is lost: what is in flight goes, both ends
    /// are told, and the client reconnects on a fresh daemon connection.
    struct BackToBack {
        client: ClientCore,
        daemon: crate::daemon::DaemonCore,
        broker: Arc<ginflow_mq::LogBroker>,
        woken: Arc<Mutex<Vec<(usize, u64)>>>,
        conn: usize,
        out: crate::link::Outbox,
        cut: Option<usize>,
        /// Pipelined publishes un-acked when the link was lost.
        unacked_at_loss: usize,
    }

    impl BackToBack {
        fn new(cut: usize) -> BackToBack {
            let broker = Arc::new(ginflow_mq::LogBroker::new());
            let registry = Arc::new(crate::registry::RunRegistry::new(broker.clone()));
            let woken = Arc::new(Mutex::new(Vec::new()));
            let sink = woken.clone();
            let wake: crate::daemon::Wake =
                Arc::new(move |conn, sub| sink.lock().push((conn, sub)));
            let mut daemon = crate::daemon::DaemonCore::new(broker.clone(), registry, None, wake);
            daemon.open(1);
            BackToBack {
                client: connected(),
                daemon,
                broker,
                woken,
                conn: 1,
                out: Default::default(),
                cut: Some(cut),
                unacked_at_loss: 0,
            }
        }

        /// Count one frame crossing the link; `false`: the link is lost
        /// before it arrives.
        fn cross(&mut self) -> bool {
            match &mut self.cut {
                Some(0) => {
                    self.cut = None;
                    self.unacked_at_loss = self.client.inflight;
                    self.client.on_lost(Instant::now());
                    self.daemon.close(self.conn);
                    self.out = Default::default();
                    self.conn += 1;
                    self.daemon.open(self.conn);
                    self.client.on_connected();
                    false
                }
                Some(left) => {
                    *left -= 1;
                    true
                }
                None => true,
            }
        }

        /// Carry bytes both ways until neither end has anything to say.
        fn pump(&mut self) {
            loop {
                let mut splitter = FrameSplitter::default();
                splitter.push(&self.client.take_outbound());
                let mut moved = false;
                while let Some(frame) = splitter.next_frame().unwrap() {
                    moved = true;
                    if !self.cross() {
                        break;
                    }
                    let now = Instant::now();
                    assert!(self.daemon.on_frame(self.conn, frame, &mut self.out, now));
                }
                assert!(self.daemon.end_turn(self.conn, &mut self.out));
                for (conn, sub) in std::mem::take(&mut *self.woken.lock()) {
                    let mut stale = crate::link::Outbox::default();
                    let out = if conn == self.conn {
                        &mut self.out
                    } else {
                        &mut stale
                    };
                    self.daemon.drain(conn, sub, out);
                    assert_eq!(stale.pending(), 0, "a stale drain wrote");
                }
                let mut splitter = FrameSplitter::default();
                splitter.push(&self.out.take());
                while let Some(frame) = splitter.next_frame().unwrap() {
                    moved = true;
                    if !self.cross() {
                        break;
                    }
                    if let Some(delivery) = self.client.on_frame(frame) {
                        assert!(delivery.run());
                    }
                }
                if !moved {
                    return;
                }
            }
        }

        /// Subscribe to `t` from the beginning, as `Broker::subscribe`
        /// would; `None` if the link was lost under it.
        fn subscribe(&mut self) -> Option<Subscription> {
            let (handle, subscription) = subscription_pair();
            let entry = RemoteSub {
                topic: "t".into(),
                origin_mode: SubscribeMode::Beginning,
                handle: Arc::new(handle),
                next_offset: HashMap::new(),
            };
            let frame = |seq| Frame::Subscribe {
                seq,
                topic: "t".into(),
                mode: SubscribeMode::Beginning,
            };
            let seq = self
                .client
                .submit(frame, Waiter::Subscribe(Box::new(entry)))
                .unwrap();
            self.pump();
            match self.client.take_answer(seq) {
                Some(Ok(Frame::Subscribed { .. })) => Some(subscription),
                Some(Err(MqError::Disconnected)) => None,
                other => panic!("subscribe answered {other:?}"),
            }
        }

        fn publish(&mut self, records: std::ops::Range<u8>) {
            for record in records {
                let payload = Bytes::from(vec![record]);
                self.client.publish("t".into(), None, payload).unwrap();
            }
        }

        /// Append `records` to `t` as its only writer, each numbered by
        /// its own value.
        fn append(&mut self, records: std::ops::Range<u8>) {
            for record in records {
                let record = Message {
                    topic: "t".into(),
                    partition: 0,
                    offset: u64::from(record),
                    key: None,
                    payload: Bytes::from(vec![record]),
                };
                self.client.append(record).unwrap();
            }
        }
    }

    #[test]
    fn appends_cut_at_every_frame_boundary_land_once_each_with_no_gap() {
        let mut cuts = 0..;
        loop {
            let cut = cuts.next().unwrap();
            let mut link = BackToBack::new(cut);
            link.append(0..5);
            link.pump();
            link.append(5..8);
            link.append(8..10);
            link.pump();

            let log = link.broker.fetch("t", 0, 0, 100).unwrap();
            let records: Vec<(u64, Bytes)> =
                log.iter().map(|m| (m.offset, m.payload.clone())).collect();
            let expected: Vec<(u64, Bytes)> = (0..10u8)
                .map(|r| (u64::from(r), Bytes::from(vec![r])))
                .collect();
            assert_eq!(records, expected, "cut after {cut} frames");
            assert!(
                matches!(link.client.flushed(), Some(Ok(()))),
                "cut after {cut} frames: nothing lost, nothing in flight"
            );
            assert!(link.client.kept.is_empty(), "cut after {cut} frames");
            if link.cut.is_some() {
                break; // the whole script ran before the cut
            }
        }
    }

    #[test]
    fn a_refused_append_and_a_closed_client_put_appends_on_the_ledger() {
        let mut core = connected();
        let record = |offset| Message {
            topic: "t".into(),
            partition: 0,
            offset,
            key: None,
            payload: Bytes::from_static(b"r"),
        };
        core.append(record(4)).unwrap();
        core.append(record(5)).unwrap();
        sent(&mut core);
        core.on_lost(Instant::now());
        core.on_connected();
        let resent: Vec<u64> = sent(&mut core)
            .into_iter()
            .map(|frame| match frame {
                Frame::Append { record, .. } => record.offset,
                other => panic!("not an append: {other:?}"),
            })
            .collect();
        assert_eq!(resent, [4, 5], "a loss re-sends, in order");
        // The daemon's log ends at 2: both are refused, with the end.
        core.on_frame(Frame::ReceiptList {
            seq_first: 1,
            receipts: vec![
                Receipt {
                    partition: 0,
                    offset: 2
                };
                2
            ],
        });
        assert!(core.kept.is_empty());
        assert!(matches!(core.flushed(), Some(Err(MqError::Remote { .. }))));
        core.append(record(6)).unwrap();
        assert!(core.close());
        assert!(core.kept.is_empty());
        match core.flushed() {
            Some(Err(MqError::Remote { message })) => {
                assert!(message.starts_with("1 pipelined"), "{message}")
            }
            other => panic!("the closed client's append is not counted: {other:?}"),
        }
    }

    #[test]
    fn both_cores_deliver_every_record_once_in_order_and_count_every_loss() {
        let mut cuts = 0..;
        loop {
            let cut = cuts.next().unwrap();
            let mut link = BackToBack::new(cut);
            link.publish(0..5);
            let first = link.subscribe();
            link.publish(5..8);
            link.pump();
            let subscription = match first {
                Some(subscription) => subscription,
                None => link.subscribe().expect("no second loss"),
            };
            link.publish(8..10);
            link.pump();

            let log = link.broker.fetch("t", 0, 0, 100).unwrap();
            let delivered: Vec<Message> =
                std::iter::from_fn(|| subscription.try_recv().unwrap()).collect();
            let offsets = |messages: &[Message]| -> Vec<(u64, Bytes)> {
                let each = messages.iter();
                each.map(|m| (m.offset, m.payload.clone())).collect()
            };
            assert_eq!(offsets(&delivered), offsets(&log), "cut after {cut} frames");
            let lost = link.unacked_at_loss;
            match link.client.flushed() {
                Some(Ok(())) => assert_eq!(lost, 0, "cut after {cut} frames"),
                Some(Err(MqError::Remote { message })) => {
                    assert!(
                        message.starts_with(&format!("{lost} pipelined")),
                        "{message}"
                    )
                }
                other => panic!("cut after {cut} frames: {other:?}"),
            }
            assert!(log.len() + lost >= 10, "a publish vanished uncounted");
            if link.cut.is_some() {
                break; // the whole script ran before the cut
            }
        }
    }
}
