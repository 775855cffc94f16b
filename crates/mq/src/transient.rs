//! The ActiveMQ-like transient broker: fast topic pub/sub, at-most-once,
//! no retention.
//!
//! Subscriber queues are **bounded** (default
//! [`DEFAULT_QUEUE_CAPACITY`]): a consumer that stalls while publishers
//! keep going loses the *oldest* queued messages instead of growing
//! memory without limit. Dropped counts are visible through
//! [`Subscription::lagged`]. This matches the profile's at-most-once
//! contract — a transient JMS topic makes no delivery promise to a slow
//! consumer either; the persistent [`crate::LogBroker`] is the profile
//! for consumers that must see everything.

use crate::broker::{
    bounded_subscription_pair, wake_all, Broker, Receipt, SubscribeMode, SubscriberHandle,
    Subscription,
};
use crate::error::MqError;
use crate::message::Message;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct TopicState {
    /// The shared topic name every delivered [`Message`] clones — one
    /// allocation per topic lifetime, not one per publish.
    name: Arc<str>,
    /// Per-topic sequence number (informational offset).
    seq: u64,
    /// Live subscriber endpoints; dead ones are pruned on publish.
    subscribers: Vec<SubscriberHandle>,
}

impl TopicState {
    fn new(topic: &str) -> Self {
        TopicState {
            name: Arc::from(topic),
            seq: 0,
            subscribers: Vec::new(),
        }
    }
}

/// Default bound of one subscriber's delivery queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 8192;

/// Transient in-memory broker. Messages published to a topic with no
/// subscriber are dropped — at-most-once, like a non-persistent JMS
/// topic — and a subscriber whose queue exceeds its bound loses the
/// oldest entries (see the module docs). Like the log broker, one lock
/// guards the topic map, and subscribers are woken after it is
/// released.
pub struct TransientBroker {
    topics: Mutex<HashMap<String, TopicState>>,
    queue_capacity: usize,
}

impl Default for TransientBroker {
    fn default() -> Self {
        TransientBroker::new()
    }
}

impl TransientBroker {
    /// New empty broker with the default subscriber-queue bound.
    pub fn new() -> Self {
        TransientBroker::with_queue_capacity(DEFAULT_QUEUE_CAPACITY)
    }

    /// New empty broker whose subscriber queues hold at most `capacity`
    /// messages (at least 1); beyond that, delivery drops the oldest.
    pub fn with_queue_capacity(capacity: usize) -> Self {
        TransientBroker {
            topics: Mutex::default(),
            queue_capacity: capacity.max(1),
        }
    }
}

impl Broker for TransientBroker {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        let (wakers, offset) = {
            let mut topics = self.topics.lock();
            let state = topics
                .entry(topic.to_owned())
                .or_insert_with(|| TopicState::new(topic));
            let offset = state.seq;
            state.seq += 1;
            let message = Message {
                topic: state.name.clone(),
                partition: 0,
                offset,
                key,
                payload,
            };
            let mut wakers = Vec::new();
            state
                .subscribers
                .retain(|sub| sub.deliver_collect(message.clone(), &mut wakers));
            (wakers, offset)
        };
        // Wake outside the topic lock: wakers may publish in turn.
        wake_all(wakers);
        Ok(Receipt {
            partition: 0,
            offset,
        })
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        match mode {
            SubscribeMode::Latest => {}
            SubscribeMode::Beginning | SubscribeMode::FromOffset(_) => {
                return Err(MqError::NotPersistent {
                    operation: "subscribe-from-history",
                })
            }
        }
        let (handle, subscription) = bounded_subscription_pair(Some(self.queue_capacity));
        self.topics
            .lock()
            .entry(topic.to_owned())
            .or_insert_with(|| TopicState::new(topic))
            .subscribers
            .push(handle);
        Ok(subscription)
    }

    fn fetch(
        &self,
        _topic: &str,
        _partition: u32,
        _from_offset: u64,
        _max: usize,
    ) -> Result<Vec<Message>, MqError> {
        Err(MqError::NotPersistent { operation: "fetch" })
    }

    fn persistent(&self) -> bool {
        false
    }

    fn partitions(&self, _topic: &str) -> u32 {
        1
    }

    fn retained(&self, _topic: &str) -> u64 {
        0
    }

    fn delete_topic(&self, topic: &str) -> bool {
        self.topics.lock().remove(topic).is_some()
    }

    fn topic_names(&self) -> Vec<String> {
        self.topics.lock().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn pub_sub_delivers_in_order() {
        let b = TransientBroker::new();
        let sub = b.subscribe("t", SubscribeMode::Latest).unwrap();
        for i in 0..5 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        for i in 0..5 {
            let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.payload_str(), format!("m{i}"));
            assert_eq!(m.offset, i);
        }
        assert_eq!(sub.try_recv().unwrap(), None);
    }

    #[test]
    fn messages_without_subscribers_are_dropped() {
        let b = TransientBroker::new();
        b.publish("t", None, payload("lost")).unwrap();
        let sub = b.subscribe("t", SubscribeMode::Latest).unwrap();
        b.publish("t", None, payload("seen")).unwrap();
        let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.payload_str(), "seen");
        assert_eq!(sub.try_recv().unwrap(), None, "history is gone");
    }

    #[test]
    fn fanout_to_multiple_subscribers() {
        let b = TransientBroker::new();
        let s1 = b.subscribe("t", SubscribeMode::Latest).unwrap();
        let s2 = b.subscribe("t", SubscribeMode::Latest).unwrap();
        b.publish("t", None, payload("x")).unwrap();
        assert_eq!(s1.recv().unwrap().payload_str(), "x");
        assert_eq!(s2.recv().unwrap().payload_str(), "x");
    }

    #[test]
    fn dead_subscribers_are_pruned() {
        let b = TransientBroker::new();
        let s1 = b.subscribe("t", SubscribeMode::Latest).unwrap();
        drop(s1);
        // Publishing should not error and should prune the dead subscriber.
        b.publish("t", None, payload("x")).unwrap();
        let s2 = b.subscribe("t", SubscribeMode::Latest).unwrap();
        b.publish("t", None, payload("y")).unwrap();
        assert_eq!(s2.recv().unwrap().payload_str(), "y");
    }

    #[test]
    fn replay_modes_rejected() {
        let b = TransientBroker::new();
        assert!(matches!(
            b.subscribe("t", SubscribeMode::Beginning),
            Err(MqError::NotPersistent { .. })
        ));
        assert!(matches!(
            b.fetch("t", 0, 0, 10),
            Err(MqError::NotPersistent { .. })
        ));
        assert!(!b.persistent());
        assert_eq!(b.retained("t"), 0);
    }

    #[test]
    fn stalled_subscriber_drops_oldest_within_bound() {
        let b = TransientBroker::with_queue_capacity(4);
        let sub = b.subscribe("t", SubscribeMode::Latest).unwrap();
        // Nobody drains: 10 publishes into a queue of 4.
        for i in 0..10 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        assert_eq!(sub.backlog(), 4, "queue must stay within its bound");
        assert_eq!(sub.lagged(), 6, "every drop is counted");
        // The survivors are the *newest* four, still in order.
        for i in 6..10 {
            assert_eq!(
                sub.recv_timeout(Duration::from_secs(1))
                    .unwrap()
                    .payload_str(),
                format!("m{i}")
            );
        }
        assert_eq!(sub.try_recv().unwrap(), None);
    }

    #[test]
    fn draining_subscriber_never_lags() {
        let b = TransientBroker::with_queue_capacity(2);
        let sub = b.subscribe("t", SubscribeMode::Latest).unwrap();
        for i in 0..100 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
            assert_eq!(sub.recv().unwrap().payload_str(), format!("m{i}"));
        }
        assert_eq!(sub.lagged(), 0);
    }

    #[test]
    fn bounds_are_per_subscription() {
        let b = TransientBroker::with_queue_capacity(3);
        let stalled = b.subscribe("t", SubscribeMode::Latest).unwrap();
        let draining = b.subscribe("t", SubscribeMode::Latest).unwrap();
        for i in 0..8 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
            assert_eq!(draining.recv().unwrap().payload_str(), format!("m{i}"));
        }
        assert_eq!(draining.lagged(), 0, "the live consumer saw everything");
        assert_eq!(stalled.backlog(), 3);
        assert_eq!(stalled.lagged(), 5);
    }

    #[test]
    fn delete_topic_disconnects_subscribers() {
        let b = TransientBroker::new();
        let sub = b.subscribe("t", SubscribeMode::Latest).unwrap();
        assert!(b.delete_topic("t"));
        assert!(matches!(sub.recv(), Err(MqError::Disconnected)));
        assert!(!b.delete_topic("t"));
    }

    #[test]
    fn topics_are_isolated() {
        let b = TransientBroker::new();
        let sa = b.subscribe("a", SubscribeMode::Latest).unwrap();
        let sb = b.subscribe("b", SubscribeMode::Latest).unwrap();
        b.publish("a", None, payload("for-a")).unwrap();
        assert_eq!(sa.recv().unwrap().payload_str(), "for-a");
        assert_eq!(sb.try_recv().unwrap(), None);
        let mut names = b.topic_names();
        names.sort();
        assert_eq!(names, ["a", "b"]);
    }
}
