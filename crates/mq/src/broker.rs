//! The [`Broker`] abstraction both middleware profiles implement.

use crate::error::MqError;
use crate::message::Message;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Where a subscription starts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubscribeMode {
    /// Only messages published after the subscription (both brokers).
    Latest,
    /// All retained messages, then live (persistent broker only).
    Beginning,
    /// Retained messages from the given offset (single-partition topics),
    /// then live (persistent broker only).
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

/// The middleware interface: topic-based pub/sub with optional
/// persistence and replay.
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

    /// Open many subscriptions at once, in order. Semantically identical
    /// to calling [`Broker::subscribe`] per request (the default does
    /// exactly that); out-of-process frontends override this to
    /// *pipeline* the round trips — all SUBSCRIBE frames go out before
    /// the first ack is awaited, so launching a 1000-agent run costs
    /// one round trip rather than a thousand.
    fn subscribe_many(
        &self,
        requests: &[(String, SubscribeMode)],
    ) -> Result<Vec<Subscription>, MqError> {
        requests
            .iter()
            .map(|(topic, mode)| self.subscribe(topic, *mode))
            .collect()
    }

    /// Read retained messages without subscribing (replay). Only the
    /// persistent broker supports this.
    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError>;

    /// Does the broker retain messages (enabling replay / recovery)?
    fn persistent(&self) -> bool;

    /// Number of partitions of `topic` (1 if it does not exist yet).
    fn partitions(&self, topic: &str) -> u32;

    /// Total retained messages in `topic` across partitions (0 on
    /// non-persistent brokers) — used by recovery to bound replay.
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

/// Callback invoked (after the broker's topic lock is released)
/// whenever a message lands in a subscription's queue.
pub(crate) type WakeFn = Arc<dyn Fn() + Send + Sync>;

/// Counter of messages dropped from a bounded subscription queue.
type LagCounter = Arc<std::sync::atomic::AtomicU64>;

/// The registered waker of one subscription, shared between the
/// subscriber-facing [`Subscription`] and the broker-side
/// [`SubscriberHandle`].
///
/// `armed` shadows `Some`-ness of the slot so the publish hot path can
/// skip waker collection entirely for the subscribers that never
/// registered one — blocking consumers.
#[derive(Default)]
pub(crate) struct WakerSlot {
    armed: std::sync::atomic::AtomicBool,
    slot: Mutex<Option<WakeFn>>,
}

impl WakerSlot {
    fn armed(&self) -> bool {
        self.armed.load(std::sync::atomic::Ordering::Acquire)
    }

    fn wake(&self) {
        // Clone out of the lock so a waker may call back into the
        // subscription (e.g. schedule work that drains it) freely.
        let waker = self.slot.lock().clone();
        if let Some(wake) = waker {
            wake();
        }
    }
}

/// Broker-side endpoint of a subscription: the delivery channel plus the
/// wakeup hook. Brokers hold one per subscriber, call
/// [`SubscriberHandle::deliver`] on publish while holding their topic
/// lock (ordering), then fire the collected wakers *after* releasing it
/// (so a waker may itself publish without deadlocking) — making delivery
/// push-based end to end: no consumer ever needs to poll.
///
/// Public because it is also the bridge API for out-of-process broker
/// frontends: `ginflow-net`'s `RemoteBroker` feeds EVENT frames arriving
/// over TCP into a local [`Subscription`] through a handle obtained from
/// [`subscription_pair`].
pub struct SubscriberHandle {
    tx: Sender<Message>,
    /// Clone of the subscriber's receiving end, used to evict the oldest
    /// message when a bounded queue is full.
    rx: Receiver<Message>,
    waker: Arc<WakerSlot>,
    /// `None` = unbounded (the persistent broker, where the log itself
    /// is the backstop); `Some(cap)` = drop-oldest beyond `cap`.
    capacity: Option<usize>,
    lagged: LagCounter,
    /// Set by [`Subscription`]'s `Drop`. The handle holds a receiver
    /// clone (for drop-oldest eviction), so channel disconnection can no
    /// longer signal a gone subscriber — this flag does.
    dropped: Arc<std::sync::atomic::AtomicBool>,
}

impl SubscriberHandle {
    /// Enqueue a message. Returns false when the subscriber is gone (the
    /// broker prunes the handle). Does not wake — the broker wakes via
    /// `SubscriberHandle::waker` once its topic lock is released; a
    /// bridge that delivers outside a topic lock calls
    /// [`SubscriberHandle::wake`] itself.
    ///
    /// On a bounded queue, delivery beyond capacity evicts the *oldest*
    /// queued message and bumps the subscription's
    /// [`Subscription::lagged`] counter — a stalled consumer loses the
    /// head of its backlog rather than growing it without limit.
    pub fn deliver(&self, message: Message) -> bool {
        if self.dropped.load(std::sync::atomic::Ordering::Acquire) {
            return false;
        }
        if let Some(cap) = self.capacity {
            while self.tx.len() >= cap.max(1) {
                if self.rx.try_recv().is_err() {
                    break;
                }
                self.lagged
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.tx.send(message).is_ok()
    }

    /// Fire the subscriber's waker, if one is registered. Bridges that
    /// deliver outside any broker lock pair this with
    /// [`SubscriberHandle::deliver`].
    pub fn wake(&self) {
        if self.waker.armed() {
            self.waker.wake();
        }
    }

    /// The subscriber's waker, for post-delivery wakeups — `None` while
    /// no waker is registered, so publishes skip the whole wake pass for
    /// blocking consumers.
    pub(crate) fn waker(&self) -> Option<Arc<WakerSlot>> {
        self.waker.armed().then(|| self.waker.clone())
    }
}

/// Fire a batch of wakers collected during a locked delivery pass.
pub(crate) fn wake_all(wakers: Vec<Arc<WakerSlot>>) {
    for waker in wakers {
        waker.wake();
    }
}

/// 32-bit FNV-1a — the workspace's one deterministic, dependency-free
/// hash: partition routing, topic-shard selection ([`topic_shard`]) and
/// the agents' shard placement all call this function, so processes
/// built from the same source agree on every placement.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c9dc5;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x01000193);
    }
    hash
}

/// Number of lock shards the in-process brokers split their topic maps
/// into. Publishes to different topics hash to different shards, so
/// concurrent runs (distinct run-scoped namespaces) and concurrent
/// agents (distinct inbox topics) stop serialising on one global mutex.
/// Power of two so the modulo is a mask.
pub const TOPIC_SHARDS: usize = 16;

/// The lock shard `topic` lives in — also the `shard` label its traffic
/// is accounted to in `gf_broker_*_total`, so a hot shard in the metrics
/// *is* the hot topic-map lock.
pub fn topic_shard(topic: &str) -> usize {
    fnv1a(topic.as_bytes()) as usize % TOPIC_SHARDS
}

/// A topic map split into [`TOPIC_SHARDS`] independently locked shards,
/// keyed by FNV-1a of the topic name. All broker operations address one
/// topic, so no operation ever needs more than one shard lock — there
/// is no lock-ordering hazard and no global pause.
pub(crate) struct TopicShards<S> {
    shards: Box<[Mutex<std::collections::HashMap<String, S>>]>,
}

impl<S> Default for TopicShards<S> {
    fn default() -> Self {
        TopicShards {
            shards: (0..TOPIC_SHARDS)
                .map(|_| Mutex::new(std::collections::HashMap::new()))
                .collect(),
        }
    }
}

impl<S> TopicShards<S> {
    /// The shard holding `topic`.
    pub fn shard(&self, topic: &str) -> &Mutex<std::collections::HashMap<String, S>> {
        &self.shards[topic_shard(topic)]
    }

    /// Lock `topic`'s shard and look the topic up.
    pub fn with<R>(&self, topic: &str, f: impl FnOnce(Option<&S>) -> R) -> R {
        f(self.shard(topic).lock().get(topic))
    }

    /// Remove `topic` from its shard, returning its state if present.
    pub fn remove(&self, topic: &str) -> Option<S> {
        self.shard(topic).lock().remove(topic)
    }

    /// Every topic name, shard by shard (no cross-shard snapshot —
    /// topics created or deleted concurrently may or may not appear).
    pub fn names(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Visit every topic mutably, one shard lock at a time.
    pub fn for_each_mut(&self, mut f: impl FnMut(&str, &mut S)) {
        for shard in self.shards.iter() {
            for (name, state) in shard.lock().iter_mut() {
                f(name, state);
            }
        }
    }
}

/// Create a connected broker-side / subscriber-side endpoint pair with
/// an unbounded queue. The broker (or network bridge) keeps the
/// [`SubscriberHandle`] and delivers into it; the consumer receives
/// through the [`Subscription`].
pub fn subscription_pair() -> (SubscriberHandle, Subscription) {
    bounded_subscription_pair(None)
}

/// [`subscription_pair`] with an optional queue bound: beyond
/// `capacity`, delivery evicts the oldest queued message (counted by
/// [`Subscription::lagged`]) instead of growing the queue.
pub fn bounded_subscription_pair(capacity: Option<usize>) -> (SubscriberHandle, Subscription) {
    let (tx, rx) = unbounded();
    let waker = Arc::new(WakerSlot::default());
    let lagged: LagCounter = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
    (
        SubscriberHandle {
            tx,
            rx: rx.clone(),
            waker: waker.clone(),
            capacity,
            lagged: lagged.clone(),
            dropped: dropped.clone(),
        },
        Subscription {
            rx,
            waker,
            lagged,
            dropped,
        },
    )
}

/// A live subscription: a stream of [`Message`]s.
pub struct Subscription {
    pub(crate) rx: Receiver<Message>,
    pub(crate) waker: Arc<WakerSlot>,
    lagged: LagCounter,
    dropped: Arc<std::sync::atomic::AtomicBool>,
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Future deliveries fail, so brokers prune the handle.
        self.dropped
            .store(true, std::sync::atomic::Ordering::Release);
        // The broker-side handle keeps a receiver clone (for
        // drop-oldest eviction), so the channel outlives us — drain the
        // backlog now rather than holding it until the next publish on
        // this topic finally prunes the handle.
        while self.rx.try_recv().is_ok() {}
    }
}

impl Subscription {
    /// Register a wakeup callback fired on every delivery. If messages
    /// are already queued (e.g. a replayed history) the callback fires
    /// immediately, so no edge is ever lost between subscribing and
    /// registering.
    ///
    /// This is what makes event-driven consumers possible: instead of
    /// polling [`Subscription::try_recv`] on a timer, a scheduler parks
    /// the consumer and lets the broker's publish path reschedule it.
    pub fn set_waker(&self, wake: impl Fn() + Send + Sync + 'static) {
        *self.waker.slot.lock() = Some(Arc::new(wake));
        self.waker
            .armed
            .store(true, std::sync::atomic::Ordering::Release);
        if !self.rx.is_empty() {
            self.waker.wake();
        }
    }

    /// Remove the registered waker (e.g. when the consumer dies).
    pub fn clear_waker(&self) {
        self.waker
            .armed
            .store(false, std::sync::atomic::Ordering::Release);
        *self.waker.slot.lock() = None;
    }
    /// Block until the next message (or the broker goes away).
    pub fn recv(&self) -> Result<Message, MqError> {
        self.rx.recv().map_err(|_| MqError::Disconnected)
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Result<Option<Message>, MqError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(MqError::Disconnected),
        }
    }

    /// Wait up to `timeout` for the next message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, MqError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(MqError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(MqError::Disconnected),
        }
    }

    /// Number of already-delivered messages waiting in the subscription.
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }

    /// How many messages this subscription has lost to its queue bound
    /// (always 0 on unbounded subscriptions). A non-zero value means the
    /// consumer stalled long enough for the broker's drop-oldest policy
    /// to kick in — on the transient (at-most-once) profile that is
    /// defined behaviour, not an error.
    pub fn lagged(&self) -> u64 {
        self.lagged.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A detached reader of this subscription's [`Subscription::lagged`]
    /// counter, usable after the subscription itself moved into a
    /// consumer thread — how a run aggregates slow-subscriber drops
    /// across all its subscriptions for its report.
    pub fn lag_probe(&self) -> LagProbe {
        LagProbe(self.lagged.clone())
    }
}

/// Shareable view of one subscription's lag counter (messages dropped by
/// the drop-oldest bound); see [`Subscription::lag_probe`].
#[derive(Clone)]
pub struct LagProbe(LagCounter);

impl LagProbe {
    /// The current drop count.
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Broker, LogBroker, SubscribeMode, TransientBroker};
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn payload() -> Bytes {
        Bytes::from_static(b"m")
    }

    fn brokers() -> Vec<Arc<dyn Broker>> {
        vec![Arc::new(TransientBroker::new()), Arc::new(LogBroker::new())]
    }

    #[test]
    fn waker_fires_on_every_publish() {
        for broker in brokers() {
            let sub = broker.subscribe("t", SubscribeMode::Latest).unwrap();
            let fired = Arc::new(AtomicUsize::new(0));
            let counter = fired.clone();
            sub.set_waker(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(fired.load(Ordering::SeqCst), 0, "no backlog, no wake");
            for _ in 0..3 {
                broker.publish("t", None, payload()).unwrap();
            }
            assert_eq!(fired.load(Ordering::SeqCst), 3);
            assert_eq!(sub.backlog(), 3);
        }
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
        for broker in brokers() {
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
    }

    #[test]
    fn waker_may_publish_without_deadlocking() {
        // Wakers run after the topic lock is released, so a waker that
        // itself publishes (agents answering messages inline) must work.
        for broker in brokers() {
            let sub = broker.subscribe("in", SubscribeMode::Latest).unwrap();
            let out = broker.subscribe("out", SubscribeMode::Latest).unwrap();
            let b = broker.clone();
            sub.set_waker(move || {
                b.publish("out", None, payload()).unwrap();
            });
            broker.publish("in", None, payload()).unwrap();
            assert_eq!(out.backlog(), 1);
        }
    }

    #[test]
    fn waker_of_a_dropped_subscription_is_pruned() {
        for broker in brokers() {
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
}
