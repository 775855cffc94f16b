//! The daemon's side of the protocol as one plain value, the
//! [`DaemonCore`]: per connection its subscriptions by wire id, its open
//! receipt run, its per-topic metric cache and its parked subscriptions;
//! for the daemon the broker, the run registry, the retention window and
//! the one retention deadline. It holds no socket, `Poll`, thread,
//! doorbell, channel or clock. It is fed a connection's open and close,
//! its frames, the end of its read turn, a drain of `(conn, sub)`, its
//! drained out buffer and the timer, with `now` passed in, and appends
//! what it answers to the connection's [`Outbox`]. A subscription asks
//! for a drain through the one [`Wake`] given at construction: the event
//! loop's rings its doorbell, a test's pushes onto a `Vec`.
//!
//! * **Drains.** A subscription's waker fires on its idle→pending edge
//!   only ([`Subscription::set_waker`]), and the drain ends with
//!   [`Subscription::settle`], which asks again if a message raced in or
//!   the batch cap stopped it short. A drain whose connection has closed,
//!   or whose subscription was dropped or forgotten, does nothing.
//! * **One ack per turn.** The receipts of a read turn's consecutive
//!   publishes, whatever their topics, coalesce into one `RECEIPT_LIST`:
//!   a pipelined storm of N publishes is acked with one frame, and a lone
//!   blocking publish gets a list of one. A seq gap, an interleaved reply,
//!   [`MAX_RECEIPT_RUN`] or the end of the turn cuts the run.
//! * **Backpressure.** A drain onto an out buffer past [`OUT_HIGH_WATER`]
//!   (the turn's unflushed bytes included) parks the subscription, its
//!   schedule bit held so deliveries do not wake it, until the buffer
//!   has drained.
//! * **Per-run state ends with the run.** `RUN_CLOSE` drops what the
//!   closing connection holds for the run; `RUN_GC` and the retention
//!   sweep drop what every connection does.
//! * **Retention.** One deadline, the earliest closed run's, re-armed
//!   from the registry after each sweep; nothing closed, no deadline.

use crate::link::Outbox;
use crate::metrics::{daemon_metrics, TopicMetrics};
use crate::registry::RunRegistry;
use crate::server::stats_snapshot;
use ginflow_mq::wire::{Frame, MAX_RECEIPT_RUN, NO_RESUME};
use ginflow_mq::{Broker, Message, MqError, Receipt, Subscription};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Out-buffer high water (bytes): beyond this a connection's
/// subscriptions park instead of piling more events onto a peer that
/// isn't reading.
const OUT_HIGH_WATER: usize = 4 << 20;

/// Max messages one drain coalesces into a single EVENTS frame before
/// re-checking its queue — bounds frame size and keeps one fire-hose
/// subscription from starving the others.
const EVENT_BATCH: usize = 128;

/// Byte budget of one coalesced EVENTS frame (payload + topic + key +
/// framing headroom per message, enforced before a message joins a
/// non-empty batch) — far under `MAX_FRAME`, so only a single message
/// whose envelope alone exceeds the frame limit can ever fail encode,
/// and that frame is dropped rather than killing the connection.
const EVENT_BATCH_BYTES: usize = 1 << 20;

/// How a subscription with deliveries queued asks for a drain of
/// `(conn, sub)`. Called from whichever thread delivered.
pub(crate) type Wake = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// One live subscription of one connection.
struct ServerSub {
    topic: String,
    sub: Subscription,
}

/// The daemon's protocol state on one connection.
#[derive(Default)]
struct Session {
    /// Live subscriptions by wire id.
    subs: HashMap<u64, ServerSub>,
    /// The last wire id handed out (they start at 1, never reused).
    last_sub: u64,
    /// Subscriptions parked on backpressure, schedule bit still held.
    parked: Vec<u64>,
    /// The open receipt run: the acks of seqs `receipts_from..` not yet
    /// encoded, whatever their topics. Empty: no run is open.
    receipts_from: u64,
    receipts: Vec<Receipt>,
    /// Topics this connection has touched, with their cached per-run
    /// metric handles: the first touch makes sure the topic's run has a
    /// registry entry, and a repeat publish touches no registry or
    /// family lock.
    seen_topics: HashMap<String, TopicMetrics>,
    /// This read turn's publishes not yet added to the counters:
    /// consecutive publishes to one topic (the storm shape) count in
    /// plain locals and reach the registry in one `add` per counter.
    pub_topic: Option<String>,
    pub_msgs: u64,
    pub_bytes: u64,
}

impl Session {
    /// First-touch accounting for `topic` on this connection.
    fn observe(&mut self, registry: &RunRegistry, topic: &str) {
        if !self.seen_topics.contains_key(topic) {
            registry.observe(topic);
            self.seen_topics
                .insert(topic.to_owned(), TopicMetrics::resolve(topic));
        }
    }

    fn count_publish(&mut self, registry: &RunRegistry, topic: &str, bytes: usize) {
        self.observe(registry, topic);
        if self.pub_topic.as_deref() != Some(topic) {
            self.flush_counts();
            self.pub_topic = Some(topic.to_owned());
        }
        self.pub_msgs += 1;
        self.pub_bytes += bytes as u64;
    }

    /// Add the pending publish counts through the topic's cached handles.
    fn flush_counts(&mut self) {
        let Some(topic) = self.pub_topic.take() else {
            return;
        };
        let m = daemon_metrics();
        m.publishes.add(self.pub_msgs);
        m.publish_bytes.add(self.pub_bytes);
        if let Some((run_msgs, run_bytes)) = &self.seen_topics[&topic].run_publish {
            run_msgs.add(self.pub_msgs);
            run_bytes.add(self.pub_bytes);
        }
        self.pub_msgs = 0;
        self.pub_bytes = 0;
    }

    /// Append one reply, after the open receipt run so frames leave in
    /// dispatch order. `Err`: it refuses to encode — connection-fatal.
    fn reply(&mut self, out: &mut Outbox, frame: &Frame) -> Result<(), ()> {
        self.flush_receipts(out)?;
        daemon_metrics().replies.inc();
        append_frame(out, frame)
    }

    /// Fold one publish ack into the open receipt run, or cut it and
    /// start a new one: any topic and partition continue the run; it
    /// takes the next consecutive seq, under the decode cap.
    fn add_receipt(&mut self, out: &mut Outbox, seq: u64, receipt: Receipt) -> Result<(), ()> {
        let open = self.receipts.len();
        if seq != self.receipts_from + open as u64 || open >= MAX_RECEIPT_RUN as usize {
            self.flush_receipts(out)?;
            self.receipts_from = seq;
        }
        self.receipts.push(receipt);
        Ok(())
    }

    /// Encode the open receipt run, if any, as one RECEIPT_LIST.
    fn flush_receipts(&mut self, out: &mut Outbox) -> Result<(), ()> {
        if self.receipts.is_empty() {
            return Ok(());
        }
        let frame = Frame::ReceiptList {
            seq_first: self.receipts_from,
            receipts: std::mem::take(&mut self.receipts),
        };
        daemon_metrics().replies.inc();
        append_frame(out, &frame)
    }

    /// Drop what this connection holds for `run`: its subscriptions
    /// (parked ones included) and its cached topics.
    fn forget_run(&mut self, run: &str) {
        // The turn's counts go out before the cache entry they use.
        self.flush_counts();
        let of_run = |topic: &str| ginflow_mq::namespace::run_of(topic) == Some(run);
        let before = self.subs.len();
        self.subs.retain(|_, entry| !of_run(&entry.topic));
        daemon_metrics()
            .subscriptions
            .sub((before - self.subs.len()) as u64);
        let subs = &self.subs;
        self.parked.retain(|id| subs.contains_key(id));
        self.seen_topics.retain(|topic, _| !of_run(topic));
    }
}

/// The daemon's protocol state — see the module docs.
pub(crate) struct DaemonCore {
    broker: Arc<dyn Broker>,
    registry: Arc<RunRegistry>,
    retention: Option<Duration>,
    /// When the retention sweep is next owed; `None` while no closed
    /// run waits (or there is no retention window).
    gc_at: Option<Instant>,
    sessions: HashMap<usize, Session>,
    wake: Wake,
}

impl DaemonCore {
    pub(crate) fn new(
        broker: Arc<dyn Broker>,
        registry: Arc<RunRegistry>,
        retention: Option<Duration>,
        wake: Wake,
    ) -> DaemonCore {
        DaemonCore {
            broker,
            registry,
            retention,
            gc_at: None,
            sessions: HashMap::new(),
            wake,
        }
    }

    /// Connection `conn` (never reused) is open.
    pub(crate) fn open(&mut self, conn: usize) {
        self.sessions.insert(conn, Session::default());
    }

    /// Connection `conn` is closed: its subscriptions go (the broker
    /// prunes their handles), and any drain still asked for no-ops.
    pub(crate) fn close(&mut self, conn: usize) {
        if let Some(session) = self.sessions.remove(&conn) {
            daemon_metrics()
                .subscriptions
                .sub(session.subs.len() as u64);
        }
    }

    /// Handle one request frame of `conn`'s read turn, appending what it
    /// answers to `out`; `false` ends the connection.
    pub(crate) fn on_frame(
        &mut self,
        conn: usize,
        frame: Frame,
        out: &mut Outbox,
        now: Instant,
    ) -> bool {
        let Some(session) = self.sessions.get_mut(&conn) else {
            return false;
        };
        let mut reclaimed = Vec::new();
        let reply = match frame {
            Frame::Publish {
                seq,
                topic,
                key,
                payload,
            } => {
                session.count_publish(&self.registry, &topic, payload.len());
                match self.broker.publish(&topic, key, payload) {
                    Ok(receipt) => return session.add_receipt(out, seq, receipt).is_ok(),
                    Err(e) => error_frame(seq, e),
                }
            }
            Frame::Subscribe { seq, topic, mode } => {
                session.observe(&self.registry, &topic);
                daemon_metrics().subscribes.inc();
                // Sample the resume watermark *before* attaching: a
                // message published after this point either replays on
                // resume (offset >= watermark) or arrives live — never
                // both dropped. Sampling after attach could count a
                // live-delivered message into the watermark and make
                // the client discard it as a replay duplicate. A single
                // offset cannot describe a multi-partition position
                // (retained() sums partitions), so those topics get the
                // no-watermark sentinel instead of a wrong number.
                let resume = if self.broker.partitions(&topic) <= 1 {
                    self.broker.retained(&topic)
                } else {
                    NO_RESUME
                };
                match self.broker.subscribe(&topic, mode) {
                    Ok(subscription) => {
                        session.last_sub += 1;
                        let sub = session.last_sub;
                        // The ack is appended before the waker is armed,
                        // and events travel through the same FIFO buffer
                        // — the client learns the id before its first
                        // EVENTS.
                        let ack = Frame::Subscribed { seq, sub, resume };
                        if session.reply(out, &ack).is_err() {
                            return false;
                        }
                        let entry = ServerSub {
                            topic,
                            sub: subscription,
                        };
                        let entry = session.subs.entry(sub).or_insert(entry);
                        daemon_metrics().subscriptions.add(1);
                        let wake = self.wake.clone();
                        entry.sub.set_waker(move || wake(conn, sub));
                        return true;
                    }
                    Err(e) => error_frame(seq, e),
                }
            }
            Frame::Unsubscribe { sub, .. } => {
                if session.subs.remove(&sub).is_some() {
                    daemon_metrics().subscriptions.sub(1);
                }
                session.parked.retain(|&id| id != sub);
                return true;
            }
            Frame::Fetch {
                seq,
                topic,
                partition,
                from,
                max,
            } => {
                daemon_metrics().fetches.inc();
                match self.broker.fetch(&topic, partition, from, max as usize) {
                    Ok(messages) => Frame::Messages { seq, messages },
                    Err(e) => error_frame(seq, e),
                }
            }
            Frame::Info { seq, topic } => Frame::InfoReply {
                seq,
                persistent: true,
                partitions: self.broker.partitions(&topic),
                retained: self.broker.retained(&topic),
            },
            Frame::RunList { seq } => Frame::RunListReply {
                seq,
                runs: self.registry.list(),
            },
            Frame::RunClose { seq, run } => {
                let known = self.registry.close(&run, now);
                // Whoever closes a run is done with it: what this
                // connection holds for it goes now, not at hang-up.
                session.forget_run(&run);
                if let (true, Some(window)) = (known, self.retention) {
                    let at = now + window;
                    self.gc_at = Some(self.gc_at.map_or(at, |gc_at| gc_at.min(at)));
                }
                Frame::RunGcReply {
                    seq,
                    runs: u32::from(known),
                    topics: 0,
                }
            }
            Frame::RunGc { seq } => {
                let topics;
                (reclaimed, topics) = self.registry.gc(Duration::ZERO, now);
                let runs = reclaimed.len() as u32;
                Frame::RunGcReply { seq, runs, topics }
            }
            Frame::Stats { seq } => Frame::StatsReply {
                seq,
                stats: stats_snapshot(&self.registry),
            },
            // A client speaking server frames is broken: hang up.
            Frame::ReceiptList { .. }
            | Frame::Subscribed { .. }
            | Frame::Messages { .. }
            | Frame::InfoReply { .. }
            | Frame::RunListReply { .. }
            | Frame::RunGcReply { .. }
            | Frame::StatsReply { .. }
            | Frame::Error { .. }
            | Frame::Events { .. } => return false,
        };
        let alive = session.reply(out, &reply).is_ok();
        self.forget(&reclaimed);
        alive
    }

    /// `conn`'s read turn is over: its publish counts go to the registry
    /// and its open receipt run to `out` — a blocking publisher is
    /// waiting on it. `false` ends the connection.
    pub(crate) fn end_turn(&mut self, conn: usize, out: &mut Outbox) -> bool {
        let Some(session) = self.sessions.get_mut(&conn) else {
            return false;
        };
        session.flush_counts();
        session.flush_receipts(out).is_ok()
    }

    /// Subscription `sub` of `conn` asked for a drain: coalesce what it
    /// has queued into EVENTS frames on `out` — unless `out` is over the
    /// high water, in which case it parks with its schedule bit held
    /// until [`DaemonCore::out_drained`].
    pub(crate) fn drain(&mut self, conn: usize, sub: u64, out: &mut Outbox) {
        let Some(session) = self.sessions.get_mut(&conn) else {
            return; // connection already closed
        };
        let Some(entry) = session.subs.get(&sub) else {
            return; // unsubscribed or forgotten meanwhile
        };
        if out.pending() > OUT_HIGH_WATER {
            daemon_metrics().backpressure_parks.inc();
            session.parked.push(sub);
            return;
        }
        if drain_sub(out, sub, &entry.sub) {
            // A message raced the drain, or the batch cap stopped it
            // short: ask again (not recursion), so the loop interleaves
            // other connections' work and re-checks the gate first.
            (self.wake)(conn, sub);
        }
    }

    /// `conn`'s out buffer has drained: resume its parked subscriptions
    /// through [`Wake`] (they still hold their schedule bit, so no
    /// delivery can ask for them twice).
    pub(crate) fn out_drained(&mut self, conn: usize) {
        if let Some(session) = self.sessions.get_mut(&conn) {
            for sub in std::mem::take(&mut session.parked) {
                (self.wake)(conn, sub);
            }
        }
    }

    /// Sweep the completed runs older than the retention window, if the
    /// sweep is due at `now`. Returns when it is next owed a call: when
    /// the next closed run becomes eligible, `None` while none waits.
    pub(crate) fn on_timer(&mut self, now: Instant) -> Option<Instant> {
        let window = self.retention?;
        if self.gc_at? <= now {
            let (runs, _) = self.registry.gc(window, now);
            self.forget(&runs);
            self.gc_at = self.registry.next_gc_deadline(window);
        }
        self.gc_at
    }

    /// Reclaimed runs: drop what any connection still holds for them.
    fn forget(&mut self, runs: &[String]) {
        for run in runs {
            for session in self.sessions.values_mut() {
                session.forget_run(run);
            }
        }
    }
}

fn error_frame(seq: u64, e: MqError) -> Frame {
    Frame::Error {
        seq,
        message: e.to_string(),
    }
}

fn append_frame(out: &mut Outbox, frame: &Frame) -> Result<(), ()> {
    let encoded = frame.encode().map_err(|_| ())?;
    daemon_metrics().reply_bytes.add(encoded.len() as u64);
    out.push(&encoded);
    Ok(())
}

/// Coalesce what is queued on scheduled subscription `id` into EVENTS
/// frames on `out`, then settle it; `true`: it must be drained again.
fn drain_sub(out: &mut Outbox, id: u64, sub: &Subscription) -> bool {
    let mut batch: Vec<Message> = Vec::new();
    let mut batch_bytes = 0usize;
    let mut drained = 0u64;
    let mut payload_bytes = 0u64;
    for _ in 0..EVENT_BATCH {
        let Ok(Some(message)) = sub.try_recv() else {
            break;
        };
        let msg_bytes = message.payload.len()
            + message.topic.len()
            + message.key.as_ref().map_or(0, |k| k.len())
            + 32;
        if !batch.is_empty() && batch_bytes + msg_bytes > EVENT_BATCH_BYTES {
            append_events(out, id, &mut batch);
            batch_bytes = 0;
        }
        batch_bytes += msg_bytes;
        payload_bytes += message.payload.len() as u64;
        drained += 1;
        batch.push(message);
    }
    if !batch.is_empty() {
        append_events(out, id, &mut batch);
    }
    if drained > 0 {
        let m = daemon_metrics();
        m.fanout_messages.add(drained);
        m.fanout_bytes.add(payload_bytes);
        m.fanout_batch.observe(drained);
    }
    sub.settle()
}

/// Append one drain batch as an EVENTS frame. A frame the codec refuses
/// (one message whose envelope is past `MAX_FRAME`) is dropped rather
/// than allowed to kill the connection — the message is still in the
/// log for `fetch`.
fn append_events(out: &mut Outbox, sub: u64, batch: &mut Vec<Message>) {
    let frame = Frame::Events {
        sub,
        messages: std::mem::take(batch),
    };
    let _ = append_frame(out, &frame);
}

#[cfg(test)]
mod tests {
    //! The core driven with no socket, thread or sleep: frames in, bytes
    //! and drain requests out.
    use super::*;
    use bytes::Bytes;
    use ginflow_mq::wire::{FrameSplitter, MAX_FRAME};
    use ginflow_mq::{LogBroker, SubscribeMode};
    use parking_lot::Mutex;

    /// A core over a log broker; its drain requests land in `woken`,
    /// each connection's bytes in `outs`, and time is `now`.
    struct Daemon {
        core: DaemonCore,
        broker: Arc<LogBroker>,
        woken: Arc<Mutex<Vec<(usize, u64)>>>,
        outs: HashMap<usize, Outbox>,
        now: Instant,
    }

    impl Daemon {
        fn new(broker: LogBroker, retention: Option<Duration>) -> Daemon {
            let broker = Arc::new(broker);
            let registry = Arc::new(RunRegistry::new(broker.clone()));
            let woken = Arc::new(Mutex::new(Vec::new()));
            let sink = woken.clone();
            let wake: Wake = Arc::new(move |conn, sub| sink.lock().push((conn, sub)));
            Daemon {
                core: DaemonCore::new(broker.clone(), registry, retention, wake),
                broker,
                woken,
                outs: HashMap::new(),
                now: Instant::now(),
            }
        }

        fn open(&mut self, conn: usize) {
            self.core.open(conn);
            self.outs.insert(conn, Outbox::default());
        }

        fn frame(&mut self, conn: usize, frame: Frame) -> bool {
            let out = self.outs.get_mut(&conn).unwrap();
            self.core.on_frame(conn, frame, out, self.now)
        }

        /// One read turn of `frames`; `false`: the core hung up.
        fn turn(&mut self, conn: usize, frames: Vec<Frame>) -> bool {
            let alive = frames.into_iter().all(|frame| self.frame(conn, frame));
            alive && self.core.end_turn(conn, self.outs.get_mut(&conn).unwrap())
        }

        /// What `conn` was sent since the last call, decoded.
        fn sent(&mut self, conn: usize) -> Vec<Frame> {
            decode(&self.outs.get_mut(&conn).unwrap().take())
        }

        fn drain(&mut self, conn: usize, sub: u64) {
            let mut spare = Outbox::default();
            let out = self.outs.get_mut(&conn).unwrap_or(&mut spare);
            self.core.drain(conn, sub, out);
        }

        fn woken(&self) -> Vec<(usize, u64)> {
            std::mem::take(&mut *self.woken.lock())
        }

        /// Subscribe `conn` to `topic` in one turn; returns the wire id.
        fn subscribe(&mut self, conn: usize, topic: &str, mode: SubscribeMode) -> u64 {
            let subscribe = Frame::Subscribe {
                seq: 100,
                topic: topic.into(),
                mode,
            };
            assert!(self.turn(conn, vec![subscribe]));
            match self.sent(conn)[..] {
                [Frame::Subscribed { sub, .. }] => sub,
                ref other => panic!("not subscribed: {other:?}"),
            }
        }

        fn subs(&self, conn: usize) -> usize {
            self.core.sessions[&conn].subs.len()
        }

        fn runs(&self) -> Vec<String> {
            let runs = self.core.registry.list();
            runs.into_iter().map(|stat| stat.run).collect()
        }
    }

    fn decode(bytes: &[u8]) -> Vec<Frame> {
        let mut splitter = FrameSplitter::default();
        splitter.push(bytes);
        std::iter::from_fn(|| splitter.next_frame().unwrap()).collect()
    }

    fn publish(seq: u64, topic: &str) -> Frame {
        Frame::Publish {
            seq,
            topic: topic.into(),
            key: None,
            payload: Bytes::from_static(b"p"),
        }
    }

    fn put(broker: &LogBroker, topic: &str, payload: Vec<u8>) {
        broker.publish(topic, None, payload.into()).unwrap();
    }

    fn receipts(seq_first: u64, offsets: &[u64]) -> Frame {
        let receipts = offsets
            .iter()
            .map(|&offset| Receipt {
                partition: 0,
                offset,
            })
            .collect();
        Frame::ReceiptList {
            seq_first,
            receipts,
        }
    }

    /// Each EVENTS frame as (sub, messages per frame).
    fn batches(frames: &[Frame]) -> Vec<(u64, usize)> {
        frames
            .iter()
            .map(|frame| match frame {
                Frame::Events { sub, messages } => (*sub, messages.len()),
                other => panic!("not an EVENTS frame: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_receipt_run_is_cut_by_a_seq_gap_an_interleaved_reply_and_the_turns_end() {
        let mut d = Daemon::new(LogBroker::new(), None);
        d.open(1);
        let info = Frame::Info {
            seq: 5,
            topic: "a".into(),
        };
        let turn = vec![publish(1, "a"), publish(2, "b"), publish(4, "a"), info];
        assert!(d.turn(1, turn));
        let info = Frame::InfoReply {
            seq: 5,
            persistent: true,
            partitions: 1,
            retained: 2,
        };
        let expected = [receipts(1, &[0, 0]), receipts(4, &[1]), info];
        assert_eq!(d.sent(1), expected, "any topic continues a run");
        assert!(d.frame(1, publish(6, "a")));
        assert!(d.frame(1, publish(7, "b")));
        assert!(
            d.sent(1).is_empty(),
            "the run stays open until the turn ends"
        );
        assert!(d.core.end_turn(1, d.outs.get_mut(&1).unwrap()));
        assert_eq!(d.sent(1), [receipts(6, &[2, 1])]);
    }

    #[test]
    fn a_receipt_run_is_cut_at_max_receipt_run() {
        let mut session = Session::default();
        let mut out = Outbox::default();
        let receipt = Receipt {
            partition: 0,
            offset: 0,
        };
        let max = MAX_RECEIPT_RUN as u64;
        for seq in 1..=max + 1 {
            session.add_receipt(&mut out, seq, receipt).unwrap();
        }
        session.flush_receipts(&mut out).unwrap();
        let runs: Vec<(u64, usize)> = decode(&out.take())
            .into_iter()
            .map(|frame| match frame {
                Frame::ReceiptList {
                    seq_first,
                    receipts,
                } => (seq_first, receipts.len()),
                other => panic!("not a receipt list: {other:?}"),
            })
            .collect();
        assert_eq!(runs, [(1, max as usize), (max + 1, 1)]);
    }

    #[test]
    fn a_topic_of_more_than_one_partition_answers_subscribed_with_no_resume() {
        for (partitions, expected) in [(1, 3), (2, NO_RESUME)] {
            let mut d = Daemon::new(LogBroker::with_default_partitions(partitions), None);
            d.open(1);
            for _ in 0..3 {
                put(&d.broker, "t", b"m".to_vec());
            }
            let subscribe = Frame::Subscribe {
                seq: 1,
                topic: "t".into(),
                mode: SubscribeMode::Latest,
            };
            assert!(d.turn(1, vec![subscribe]));
            let resume = match d.sent(1)[..] {
                [Frame::Subscribed { resume, .. }] => resume,
                ref other => panic!("not subscribed: {other:?}"),
            };
            assert_eq!(resume, expected, "{partitions} partition(s)");
        }
    }

    #[test]
    fn a_drain_over_the_high_water_parks_and_each_parked_sub_resumes_once() {
        let mut d = Daemon::new(LogBroker::new(), None);
        d.open(1);
        let a = d.subscribe(1, "a", SubscribeMode::Latest);
        let b = d.subscribe(1, "b", SubscribeMode::Latest);
        put(&d.broker, "a", b"1".to_vec());
        put(&d.broker, "b", b"1".to_vec());
        assert_eq!(d.woken(), [(1, a), (1, b)]);
        d.outs.get_mut(&1).unwrap().push(&[0; OUT_HIGH_WATER + 1]);
        d.drain(1, a);
        d.drain(1, b);
        assert_eq!(d.outs[&1].pending(), OUT_HIGH_WATER + 1, "both parked");
        put(&d.broker, "a", b"2".to_vec());
        assert!(d.woken().is_empty(), "a parked sub keeps its schedule bit");

        d.outs.get_mut(&1).unwrap().take();
        d.core.out_drained(1);
        assert_eq!(d.woken(), [(1, a), (1, b)]);
        d.core.out_drained(1);
        assert!(d.woken().is_empty(), "resumed exactly once");
        d.drain(1, a);
        d.drain(1, b);
        assert_eq!(batches(&d.sent(1)), [(a, 2), (b, 1)]);
        assert!(d.woken().is_empty());
    }

    #[test]
    fn a_stale_drain_is_a_no_op() {
        let mut d = Daemon::new(LogBroker::new(), None);
        d.open(1);
        for topic in ["run/r/x", "y", "z"] {
            put(&d.broker, topic, b"m".to_vec());
        }
        let forgotten = d.subscribe(1, "run/r/x", SubscribeMode::Beginning);
        let dropped = d.subscribe(1, "y", SubscribeMode::Beginning);
        let closed = d.subscribe(1, "z", SubscribeMode::Beginning);
        assert_eq!(d.woken().len(), 3, "each backlog asked for a drain");
        let unsubscribe = Frame::Unsubscribe {
            seq: 0,
            sub: dropped,
        };
        let close = Frame::RunClose {
            seq: 1,
            run: "r".into(),
        };
        assert!(d.turn(1, vec![unsubscribe, close]));
        d.sent(1);
        d.drain(1, forgotten);
        d.drain(1, dropped);
        assert!(d.sent(1).is_empty());
        d.core.close(1);
        d.drain(1, closed);
        d.drain(7, 1);
        assert_eq!(d.outs[&1].pending(), 0);
        assert!(d.woken().is_empty());
    }

    #[test]
    fn run_close_forgets_the_closers_state_and_run_gc_everyones() {
        let mut d = Daemon::new(LogBroker::new(), None);
        for conn in [1, 2] {
            d.open(conn);
            d.subscribe(conn, "run/a/s", SubscribeMode::Latest);
        }
        d.subscribe(2, "run/b/s", SubscribeMode::Latest);
        let close = |run: &str| Frame::RunClose {
            seq: 1,
            run: run.into(),
        };
        assert!(d.turn(1, vec![close("a"), close("b")]));
        assert_eq!((d.subs(1), d.subs(2)), (0, 2), "only the closer forgets");
        assert!(d.core.sessions[&1].seen_topics.is_empty());

        assert!(d.turn(2, vec![Frame::RunGc { seq: 2 }]));
        let reply = Frame::RunGcReply {
            seq: 2,
            runs: 2,
            topics: 2,
        };
        assert_eq!(d.sent(2), [reply]);
        assert_eq!(d.subs(2), 0, "the requester forgets too");
        assert!(d.core.sessions[&2].seen_topics.is_empty());
        assert!(d.runs().is_empty());
    }

    #[test]
    fn the_sweep_fires_at_close_plus_window_and_many_closes_arm_one_deadline() {
        let window = Duration::from_secs(10);
        let mut d = Daemon::new(LogBroker::new(), Some(window));
        let t0 = d.now;
        d.open(1);
        d.open(2);
        let publishes = ["run/a/s", "run/b/s", "run/c/s"].map(|topic| publish(1, topic));
        assert!(d.turn(1, publishes.into()));
        d.subscribe(2, "run/a/s", SubscribeMode::Latest);
        d.subscribe(2, "run/b/s", SubscribeMode::Latest);
        assert_eq!(d.core.on_timer(t0), None, "nothing closed");
        for (at, run) in [(0, "a"), (1, "b"), (2, "a")] {
            d.now = t0 + Duration::from_secs(at);
            let close = Frame::RunClose {
                seq: 2,
                run: run.into(),
            };
            assert!(d.turn(1, vec![close]));
        }
        let early = t0 + window - Duration::from_millis(1);
        assert_eq!(d.core.on_timer(early), Some(t0 + window), "one deadline");
        assert_eq!(d.runs(), ["a", "b", "c"], "not yet due");
        let next = t0 + window + Duration::from_secs(1);
        assert_eq!(d.core.on_timer(t0 + window), Some(next), "re-armed for b");
        assert_eq!(d.runs(), ["b", "c"]);
        assert_eq!(d.subs(2), 1, "every connection forgets a swept run");
        assert_eq!(d.broker.topic_names().len(), 2);
        assert_eq!(d.core.on_timer(next), None);
        assert_eq!(d.runs(), ["c"]);
        assert_eq!(d.subs(2), 0);
    }

    #[test]
    fn an_events_frame_stays_within_both_batch_caps() {
        let mut d = Daemon::new(LogBroker::new(), None);
        d.open(1);
        let sub = d.subscribe(1, "t", SubscribeMode::Latest);
        for _ in 0..EVENT_BATCH + 3 {
            put(&d.broker, "t", b"m".to_vec());
        }
        assert_eq!(d.woken(), [(1, sub)]);
        d.drain(1, sub);
        assert_eq!(d.woken(), [(1, sub)], "the count cap asks for another");
        d.drain(1, sub);
        assert!(d.woken().is_empty());
        assert_eq!(batches(&d.sent(1)), [(sub, EVENT_BATCH), (sub, 3)]);

        let payload = EVENT_BATCH_BYTES * 2 / 5;
        for _ in 0..3 {
            put(&d.broker, "t", vec![0; payload]);
        }
        d.woken();
        d.drain(1, sub);
        let frames = d.sent(1);
        assert_eq!(batches(&frames), [(sub, 2), (sub, 1)], "the byte cap cuts");
        for frame in &frames {
            assert!(frame.encode().unwrap().len() <= EVENT_BATCH_BYTES);
        }
    }

    #[test]
    fn a_message_too_large_for_one_frame_is_dropped_and_the_connection_stays() {
        let mut d = Daemon::new(LogBroker::new(), None);
        d.open(1);
        let sub = d.subscribe(1, "t", SubscribeMode::Latest);
        put(&d.broker, "t", vec![0; MAX_FRAME]);
        put(&d.broker, "t", b"small".to_vec());
        d.drain(1, sub);
        match &d.sent(1)[..] {
            [Frame::Events { messages, .. }] => assert_eq!(messages[0].offset, 1),
            other => panic!("expected the small message alone: {other:?}"),
        }
        assert!(d.turn(1, vec![Frame::RunList { seq: 1 }]));
        assert_eq!(d.sent(1).len(), 1, "the connection still answers");
    }

    #[test]
    fn a_client_frame_carrying_a_server_opcode_hangs_up() {
        let mut d = Daemon::new(LogBroker::new(), None);
        d.open(1);
        let events = Frame::Events {
            sub: 1,
            messages: Vec::new(),
        };
        assert!(!d.turn(1, vec![events]));
        assert!(!d.turn(1, vec![receipts(1, &[0])]));
    }

    #[test]
    fn a_publish_and_the_close_of_its_run_in_one_turn_are_both_served() {
        let mut d = Daemon::new(LogBroker::new(), None);
        d.open(1);
        let close = Frame::RunClose {
            seq: 2,
            run: "a".into(),
        };
        assert!(d.turn(1, vec![publish(1, "run/a/s"), close]));
        let reply = Frame::RunGcReply {
            seq: 2,
            runs: 1,
            topics: 0,
        };
        assert_eq!(d.sent(1), [receipts(1, &[0]), reply]);
    }
}
