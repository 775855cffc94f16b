//! The [`Broker`] abstraction: the in-process log implements it, and so
//! does `ginflow-net`'s client of a remote one.

use crate::error::MqError;
use crate::message::Message;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a subscription starts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubscribeMode {
    /// Only messages published after the subscription.
    Latest,
    /// All retained messages, then live.
    Beginning,
    /// Retained messages from the given offset (single-partition topics),
    /// then live.
    FromOffset(u64),
}

/// Acknowledgement of a publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Partition the message was routed to.
    pub partition: u32,
    /// Offset assigned within that partition.
    pub offset: u64,
}

/// The middleware interface: topic-based pub/sub over retained,
/// replayable logs.
pub trait Broker: Send + Sync {
    /// Publish `payload` to `topic`; the optional `key` pins the partition
    /// on partitioned brokers.
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError>;

    /// Publish without waiting for the broker's acknowledgement — the
    /// hot-path variant for callers that do not consume the [`Receipt`]
    /// (agents firing results and status updates).
    ///
    /// In-process brokers complete synchronously, so the default simply
    /// forwards to [`Broker::publish`]. Out-of-process frontends
    /// (`ginflow-net`'s `RemoteBroker`) override this with a *pipelined*
    /// path: the frame is written and the call returns, acks are
    /// consumed asynchronously, and the call only blocks when the
    /// in-flight window is full. Per-topic FIFO ordering is preserved
    /// either way. A pipelined publish that later fails (connection
    /// lost before the ack) surfaces on the next [`Broker::flush`] —
    /// the same at-most-once-on-outage contract the blocking path gives
    /// callers that discard its error.
    fn publish_nowait(
        &self,
        topic: &str,
        key: Option<Bytes>,
        payload: Bytes,
    ) -> Result<(), MqError> {
        self.publish(topic, key, payload).map(|_| ())
    }

    /// [`Broker::publish_nowait`] for a batch of `(topic, key, payload)`
    /// items — what one agent turn produces: a status update and the
    /// result messages it precedes.
    ///
    /// * **Order.** Items are published in batch order, and the batch as
    ///   a whole keeps its place among this caller's other publishes:
    ///   an item is never observable before the one ahead of it.
    /// * **Partial failure.** An item that fails (a payload the codec
    ///   refuses, a topic the broker rejects) fails alone: every other
    ///   item is still published, and the call returns the first error.
    /// * **Default.** One `publish_nowait` per item — so a wrapper that
    ///   interposes on `publish_nowait` (a test's fault injector, a
    ///   benchmark's stopwatch) sees every message without knowing
    ///   batches exist. Out-of-process frontends override it to hand
    ///   the whole batch to the connection at once.
    fn publish_many_nowait(
        &self,
        batch: Vec<(String, Option<Bytes>, Bytes)>,
    ) -> Result<(), MqError> {
        let mut first_error = None;
        for (topic, key, payload) in batch {
            if let Err(e) = self.publish_nowait(&topic, key, payload) {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Append records as the only writer of their topics: each goes to
    /// the partition it names, at the offset it carries — the writer
    /// numbered it, and ships its records in log order.
    ///
    /// * **Exact.** A record whose offset is below its partition's end
    ///   is in the log already when the record there has its key and
    ///   payload (a re-send after a lost receipt), and is not appended
    ///   again; another record there means another writer moved the
    ///   end, and refuses it ([`MqError::OffsetTaken`]). One above the
    ///   end would leave a gap and is refused ([`MqError::OffsetGap`]).
    ///   So a writer that re-sends whatever it has no receipt for leaves
    ///   the log with no gap and no duplicate, and learns of any writer
    ///   that got in its way.
    /// * **Receipted.** Pipelined like [`Broker::publish_many_nowait`]:
    ///   the call returns once the batch is handed over, and
    ///   [`Broker::wait_appended`] waits until every record is
    ///   receipted. A refused record fails alone, like a publish, and
    ///   goes where a lost publish goes: the call's error in process,
    ///   the client's loss ledger over a connection.
    /// * **Default.** [`Broker::publish_many_nowait`] of the records'
    ///   topics, keys and payloads: the broker numbers them itself, which
    ///   gives the same offsets when the caller is indeed the only
    ///   writer and numbered from the partitions' ends — and lets a
    ///   wrapper that interposes on publishes see every record.
    fn append_many(&self, batch: Vec<Message>) -> Result<(), MqError> {
        let batch = batch.into_iter();
        self.publish_many_nowait(
            batch
                .map(|m| (m.topic.to_string(), m.key, m.payload))
                .collect(),
        )
    }

    /// Block until every record handed to [`Broker::append_many`]
    /// before the call is receipted — in the log, or refused — so that a
    /// [`Broker::fetch`] made next reads all of them that landed. Unlike
    /// [`Broker::flush`] it waits for no plain publish and leaves the
    /// loss ledger alone: a writer that reads back its own records does
    /// not take another caller's report of a lost publish. An error is
    /// a wait that ran out; the records stay where they were.
    ///
    /// The default has nothing to wait for: an in-process log has
    /// appended by the time `append_many` returns, and a wrapper that
    /// publishes what it is handed (`append_many`'s default) hands each
    /// record to its connection ahead of any later fetch.
    fn wait_appended(&self) -> Result<(), MqError> {
        Ok(())
    }

    /// Block until every pipelined [`Broker::publish_nowait`] has been
    /// acknowledged. Returns the first latched pipeline error (e.g.
    /// publishes lost to a severed connection) since the previous
    /// flush, if any. In-process brokers have nothing in flight, so the
    /// default is a no-op.
    fn flush(&self) -> Result<(), MqError> {
        Ok(())
    }

    /// Subscribe to a topic.
    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError>;

    /// Open many subscriptions at once, in order. The default calls
    /// [`Broker::subscribe`] once per request, and the first error ends
    /// the batch, dropping the subscriptions already opened — so over
    /// TCP each request is a round trip of its own.
    fn subscribe_many(
        &self,
        requests: &[(String, SubscribeMode)],
    ) -> Result<Vec<Subscription>, MqError> {
        requests
            .iter()
            .map(|(topic, mode)| self.subscribe(topic, *mode))
            .collect()
    }

    /// Read retained messages without subscribing (replay).
    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError>;

    /// Does the broker retain messages? Every broker does; no product
    /// code asks any more, and the method leaves the trait once no
    /// implementation names it.
    fn persistent(&self) -> bool {
        true
    }

    /// Number of partitions of `topic` (1 if it does not exist yet).
    fn partitions(&self, topic: &str) -> u32;

    /// Total retained messages in `topic` across partitions — used by
    /// recovery to bound replay.
    fn retained(&self, topic: &str) -> u64;

    /// Drop `topic` entirely: retained messages and subscriber
    /// registrations (live [`Subscription`]s see disconnection). The
    /// reclamation hook a standing daemon's run GC is built on. Returns
    /// whether the topic existed; the default (for brokers that cannot
    /// reclaim, e.g. a remote frontend) removes nothing.
    fn delete_topic(&self, topic: &str) -> bool {
        let _ = topic;
        false
    }

    /// Names of every topic the broker currently knows, in no
    /// particular order. How a server rehydrates its run registry from
    /// a broker recovered off disk. Brokers that cannot enumerate
    /// (e.g. a remote frontend) return nothing — the default.
    fn topic_names(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Callback invoked (after the broker's topic lock is released) when a
/// message lands in an idle subscription's queue.
pub(crate) type WakeFn = Arc<dyn Fn() + Send + Sync>;

/// One subscription's state, shared by its two ends under one lock.
struct Shared {
    state: Mutex<State>,
    /// Notified only while a thread is parked in `recv`/`recv_timeout`.
    ready: Condvar,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Message>,
    waker: Option<WakeFn>,
    /// The schedule bit: set by the delivery that finds the subscription
    /// idle (the one that fires the waker), cleared by
    /// [`Subscription::settle`].
    pending: bool,
    /// Threads blocked in `recv`/`recv_timeout`.
    parked: usize,
    /// The [`SubscriberHandle`] is dropped: no more deliveries.
    handle_gone: bool,
    /// The [`Subscription`] is dropped: deliveries fail.
    subscription_gone: bool,
}

impl State {
    /// Take the idle→pending edge: the waker for exactly one caller per
    /// edge, and only while one is registered and a message is queued —
    /// that caller fires it.
    fn claim(&mut self) -> Option<WakeFn> {
        if self.pending || self.queue.is_empty() {
            return None;
        }
        let waker = self.waker.clone()?;
        self.pending = true;
        Some(waker)
    }
}

/// Broker-side endpoint of a subscription. Brokers hold one per
/// subscriber, call [`SubscriberHandle::deliver`] on publish while
/// holding their topic lock (ordering), then fire the wakers the pass
/// collected *after* releasing it (so a waker may itself publish
/// without deadlocking) — making delivery push-based end to end: no
/// consumer ever needs to poll. Dropping the handle disconnects the
/// subscription once its queue is drained.
///
/// Public because it is also the bridge API for out-of-process broker
/// frontends: `ginflow-net`'s `RemoteBroker` feeds EVENTS frames arriving
/// over TCP into a local [`Subscription`] through a handle obtained from
/// [`subscription_pair`].
pub struct SubscriberHandle {
    shared: Arc<Shared>,
}

impl SubscriberHandle {
    /// Enqueue a message. Returns false when the subscriber is gone (the
    /// broker prunes the handle). Does not wake — the broker fires the
    /// wakers its delivery pass collected once its topic lock is
    /// released; a bridge that delivers outside a topic lock calls
    /// [`SubscriberHandle::wake`] itself.
    pub fn deliver(&self, message: Message) -> bool {
        self.push(message, None)
    }

    /// [`SubscriberHandle::deliver`] that also takes the idle→pending
    /// edge: pushes the subscriber's waker onto `wakers` when this
    /// delivery found the subscription idle, so a broker delivers and
    /// collects wakers in one pass.
    pub(crate) fn deliver_collect(&self, message: Message, wakers: &mut Wakers) -> bool {
        self.push(message, Some(wakers))
    }

    fn push(&self, message: Message, wakers: Option<&mut Wakers>) -> bool {
        let mut state = self.shared.state.lock();
        if state.subscription_gone {
            return false;
        }
        state.queue.push_back(message);
        if let Some(wakers) = wakers {
            wakers.extend(state.claim());
        }
        if state.parked > 0 {
            self.shared.ready.notify_one();
        }
        true
    }

    /// Fire the subscriber's waker if this finds the subscription idle
    /// (see [`Subscription::set_waker`]). Bridges that deliver outside
    /// any broker lock pair this with [`SubscriberHandle::deliver`].
    pub fn wake(&self) {
        let waker = self.shared.state.lock().claim();
        if let Some(wake) = waker {
            wake();
        }
    }
}

impl Drop for SubscriberHandle {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.handle_gone = true;
        if state.parked > 0 {
            self.shared.ready.notify_all();
        }
    }
}

/// The wakers a locked delivery pass collects, to fire once the lock is
/// released. The first is held inline — a topic usually has one
/// subscriber — so a publish allocates nothing for it.
#[derive(Default)]
pub(crate) struct Wakers {
    first: Option<WakeFn>,
    more: Vec<WakeFn>,
}

impl Wakers {
    fn extend(&mut self, wake: Option<WakeFn>) {
        match (&self.first, wake) {
            (_, None) => {}
            (None, wake) => self.first = wake,
            (Some(_), Some(wake)) => self.more.push(wake),
        }
    }

    /// Fire them, in the order they were collected.
    pub(crate) fn fire(self) {
        for wake in self.first.into_iter().chain(self.more) {
            wake();
        }
    }
}

/// 32-bit FNV-1a — the workspace's one deterministic, dependency-free
/// hash: partition routing and the agents' shard placement both call
/// this function, so processes built from the same source agree on
/// every placement.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c9dc5;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x01000193);
    }
    hash
}

/// Create a connected broker-side / subscriber-side endpoint pair with
/// an unbounded queue. The broker (or network bridge) keeps the
/// [`SubscriberHandle`] and delivers into it; the consumer receives
/// through the [`Subscription`].
pub fn subscription_pair() -> (SubscriberHandle, Subscription) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::default()),
        ready: Condvar::new(),
    });
    (
        SubscriberHandle {
            shared: shared.clone(),
        },
        Subscription { shared },
    )
}

/// A live subscription: a stream of [`Message`]s, queued by its
/// [`SubscriberHandle`] and read either by blocking
/// ([`Subscription::recv`]) or by a registered waker that drains it
/// ([`Subscription::set_waker`]). It reports
/// [`MqError::Disconnected`] once the handle is dropped (the broker
/// went away or deleted the topic) and the queue is empty. Dropping it
/// discards its backlog, and the broker prunes the handle on its next
/// delivery.
pub struct Subscription {
    shared: Arc<Shared>,
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.subscription_gone = true;
        state.queue = VecDeque::new();
    }
}

impl Subscription {
    /// Register a wakeup callback, fired on the subscription's
    /// idle→pending edge: by the delivery that finds it idle, never by
    /// the ones that follow while a drain is pending. The consumer owns
    /// the subscription from that wake until it ends its drain with
    /// [`Subscription::settle`] (or [`Subscription::drain`], which does
    /// both); whatever arrives meanwhile is that drain's to take. If
    /// messages are already queued (e.g. a replayed history) the callback
    /// fires immediately, so no edge is ever lost between subscribing and
    /// registering.
    ///
    /// This is what makes event-driven consumers possible: instead of
    /// polling [`Subscription::try_recv`] on a timer, a scheduler parks
    /// the consumer and lets the broker's publish path reschedule it.
    pub fn set_waker(&self, wake: impl Fn() + Send + Sync + 'static) {
        let waker = {
            let mut state = self.shared.state.lock();
            state.waker = Some(Arc::new(wake));
            state.claim()
        };
        if let Some(wake) = waker {
            wake();
        }
    }

    /// Remove the registered waker (e.g. when the consumer dies).
    pub fn clear_waker(&self) {
        self.shared.state.lock().waker = None;
    }

    /// End a drain: mark the subscription idle, so the next delivery
    /// fires the waker again — unless a message raced in, in which case
    /// the bit stays set and `true` says the caller still owns the
    /// subscription and must drain again. Both happen under the lock
    /// deliveries take, so none is lost: one that landed first is seen
    /// here, one after it finds the subscription idle and wakes.
    pub fn settle(&self) -> bool {
        let mut state = self.shared.state.lock();
        state.pending = !state.queue.is_empty();
        state.pending
    }

    /// The whole drain a waker runs: hand every queued message to
    /// `each`, in queue order, until the subscription is idle (see
    /// [`Subscription::settle`]). Each pass takes the whole queue under
    /// one lock and runs `each` outside it, and the emptied buffer goes
    /// back to the idle queue, so a drain costs the queue no capacity.
    /// Only the waker's caller — the owner of the idle→pending edge — may
    /// run it, so one thread drains at a time.
    pub fn drain(&self, mut each: impl FnMut(Message)) {
        let mut batch = VecDeque::new();
        loop {
            {
                let mut state = self.shared.state.lock();
                if state.queue.is_empty() {
                    if state.queue.capacity() < batch.capacity() {
                        std::mem::swap(&mut state.queue, &mut batch);
                    }
                    state.pending = false;
                    return;
                }
                std::mem::swap(&mut state.queue, &mut batch);
            }
            batch.drain(..).for_each(&mut each);
        }
    }

    /// Block until the next message (or the broker goes away).
    pub fn recv(&self) -> Result<Message, MqError> {
        self.next(None)
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Result<Option<Message>, MqError> {
        let mut state = self.shared.state.lock();
        match state.queue.pop_front() {
            Some(message) => Ok(Some(message)),
            None if state.handle_gone => Err(MqError::Disconnected),
            None => Ok(None),
        }
    }

    /// Wait up to `timeout` for the next message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, MqError> {
        self.next(Some(Instant::now() + timeout))
    }

    /// Pop the next message, parking until one arrives, the handle is
    /// dropped or `deadline` passes.
    fn next(&self, deadline: Option<Instant>) -> Result<Message, MqError> {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(message) = state.queue.pop_front() {
                return Ok(message);
            }
            if state.handle_gone {
                return Err(MqError::Disconnected);
            }
            state.parked += 1;
            let timed_out = match deadline {
                None => {
                    self.shared.ready.wait(&mut state);
                    false
                }
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    left.is_zero() || self.shared.ready.wait_for(&mut state, left).timed_out()
                }
            };
            state.parked -= 1;
            if timed_out && state.queue.is_empty() {
                return Err(MqError::Timeout);
            }
        }
    }

    /// Number of already-delivered messages waiting in the subscription.
    pub fn backlog(&self) -> usize {
        self.shared.state.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Broker, LogBroker, SubscribeMode};
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn payload() -> Bytes {
        Bytes::from_static(b"m")
    }

    #[test]
    fn waker_fires_immediately_on_existing_backlog() {
        // The recovery path: a replayed subscription has history queued
        // before any waker exists; registration must not lose the edge.
        let broker = LogBroker::new();
        broker.publish("t", None, payload()).unwrap();
        broker.publish("t", None, payload()).unwrap();
        let sub = broker.subscribe("t", SubscribeMode::Beginning).unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = fired.clone();
        sub.set_waker(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1, "backlog wakes at once");
    }

    #[test]
    fn cleared_waker_stays_silent() {
        let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
        let sub = broker.subscribe("t", SubscribeMode::Latest).unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = fired.clone();
        sub.set_waker(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        sub.clear_waker();
        broker.publish("t", None, payload()).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(sub.backlog(), 1, "delivery itself is unaffected");
    }

    #[test]
    fn waker_may_publish_without_deadlocking() {
        // Wakers run after the topic lock is released, so a waker that
        // itself publishes (agents answering messages inline) must work.
        let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
        let sub = broker.subscribe("in", SubscribeMode::Latest).unwrap();
        let out = broker.subscribe("out", SubscribeMode::Latest).unwrap();
        let b = broker.clone();
        sub.set_waker(move || {
            b.publish("out", None, payload()).unwrap();
        });
        broker.publish("in", None, payload()).unwrap();
        assert_eq!(out.backlog(), 1);
    }

    #[test]
    fn waker_of_a_dropped_subscription_is_pruned() {
        let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
        let sub = broker.subscribe("t", SubscribeMode::Latest).unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = fired.clone();
        sub.set_waker(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        drop(sub);
        broker.publish("t", None, payload()).unwrap();
        broker.publish("t", None, payload()).unwrap();
        assert!(
            fired.load(Ordering::SeqCst) <= 1,
            "at most the pruning publish may observe the stale handle"
        );
    }
}
