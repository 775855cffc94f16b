//! The Kafka-like persistent log broker.
//!
//! Topics are split into partitions; each partition is an append-only log
//! with dense offsets. Keys hash to partitions (FNV-1a), keyless messages
//! round-robin. Subscribers may attach at the head, from the beginning, or
//! from an offset; [`Broker::fetch`] reads retained messages directly —
//! "we exploit the ability of Kafka to persist the messages exchanged by
//! the services and to replay them on demand" (§IV-B).
//!
//! Retention is layered: every partition keeps a bounded in-memory window
//! of recent messages (the hot path for fan-out and replay), and a broker
//! opened with [`LogBroker::open`] additionally appends every publish to
//! the [`crate::store`] segment files *before* fan-out. Offsets evicted
//! from the memory window fall through to segment reads transparently, so
//! replay depth is bounded by disk, not RAM — and a restarted broker
//! resumes the same offsets it crashed with.

use crate::broker::{
    fnv1a, subscription_pair, wake_all, Broker, Receipt, SubscribeMode, SubscriberHandle,
    Subscription, TopicShards,
};
use crate::error::MqError;
use crate::message::Message;
use crate::store::{DurabilityConfig, PartitionStore, SegmentStore};
use bytes::Bytes;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

/// One partition's log: a bounded in-memory window over an optional
/// on-disk segment store. `base` is the offset of `log[0]` — always 0
/// for a purely in-memory broker, and the eviction watermark for a
/// durable one.
struct PartitionLog {
    base: u64,
    log: VecDeque<Message>,
    store: Option<PartitionStore>,
}

impl PartitionLog {
    fn new(store: Option<PartitionStore>) -> Self {
        PartitionLog {
            base: store.as_ref().map_or(0, PartitionStore::next_offset),
            log: VecDeque::new(),
            store,
        }
    }

    /// Offset the next publish gets.
    fn next_offset(&self) -> u64 {
        self.base + self.log.len() as u64
    }

    /// Messages `[from, …)` read back from the segment store as
    /// [`Message`]s (empty without a store).
    fn read_store(
        &self,
        name: &Arc<str>,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        let Some(store) = &self.store else {
            return Ok(Vec::new());
        };
        let records = store.read(from, max).map_err(|e| MqError::Store {
            message: format!("reading partition {partition}: {e}"),
        })?;
        Ok(records
            .into_iter()
            .map(|(offset, key, payload)| Message {
                topic: name.clone(),
                partition,
                offset,
                key,
                payload,
            })
            .collect())
    }
}

struct TopicState {
    /// The shared topic name every delivered [`Message`] clones — one
    /// allocation per topic lifetime, not one per publish.
    name: Arc<str>,
    partitions: Vec<PartitionLog>,
    subscribers: Vec<SubscriberHandle>,
    round_robin: u32,
}

impl TopicState {
    fn new(topic: &str, partitions: u32) -> Self {
        TopicState {
            name: Arc::from(topic),
            partitions: (0..partitions.max(1))
                .map(|_| PartitionLog::new(None))
                .collect(),
            subscribers: Vec::new(),
            round_robin: 0,
        }
    }

    fn from_stores(topic: &str, stores: Vec<PartitionStore>) -> Self {
        TopicState {
            name: Arc::from(topic),
            partitions: stores
                .into_iter()
                .map(|s| PartitionLog::new(Some(s)))
                .collect(),
            subscribers: Vec::new(),
            round_robin: 0,
        }
    }
}

/// What [`LogBroker::open`] reconstructed from a data dir.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Topics found on disk.
    pub topics: usize,
    /// Total records across their partitions (sum of next-offsets).
    pub messages: u64,
    /// Torn-tail bytes truncated (crash artifacts, not corruption).
    pub truncated_bytes: u64,
}

/// Persistent, partitioned, replayable broker. The topic map is split
/// into lock shards keyed by topic hash
/// (`broker::TOPIC_SHARDS`), so publishes to distinct topics —
/// different agents' inboxes, different runs' namespaces — never
/// contend on a shared lock.
///
/// [`LogBroker::new`] retains messages in memory only; [`LogBroker::open`]
/// backs every partition with the file-based segment store, making
/// retention and offsets survive a broker restart.
pub struct LogBroker {
    topics: TopicShards<TopicState>,
    default_partitions: u32,
    store: Option<SegmentStore>,
    /// Per-partition in-memory window when a store is present
    /// (`usize::MAX` otherwise — a memory-only broker never evicts).
    memory_messages: usize,
}

impl Default for LogBroker {
    fn default() -> Self {
        LogBroker::new()
    }
}

impl LogBroker {
    /// In-memory broker creating single-partition topics on demand.
    pub fn new() -> Self {
        LogBroker {
            topics: TopicShards::default(),
            default_partitions: 1,
            store: None,
            memory_messages: usize::MAX,
        }
    }

    /// In-memory broker creating `n`-partition topics on demand.
    pub fn with_default_partitions(n: u32) -> Self {
        LogBroker {
            default_partitions: n.max(1),
            ..LogBroker::new()
        }
    }

    /// Durable broker over the segment store at `dir`: validates the
    /// data dir (refusing foreign or schema-incompatible ones),
    /// recovers every topic found in it — truncating torn tails and
    /// rebuilding next-offsets — and appends each subsequent publish to
    /// disk before fan-out.
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), MqError> {
        let (store, recovered) = SegmentStore::open(dir, config)?;
        let broker = LogBroker {
            topics: TopicShards::default(),
            default_partitions: 1,
            store: Some(store),
            memory_messages: config.memory_messages,
        };
        let mut report = RecoveryReport {
            topics: recovered.len(),
            ..RecoveryReport::default()
        };
        for topic in recovered {
            report.truncated_bytes += topic.truncated_bytes;
            report.messages += topic
                .partitions
                .iter()
                .map(PartitionStore::next_offset)
                .sum::<u64>();
            // Recovered partitions re-warm their memory window from the
            // tail of the on-disk log, so a restarted broker serves the
            // hot tail — fan-out replay, FromOffset near the head — from
            // RAM exactly like the broker that crashed did. Only deeper
            // history falls through to segment reads.
            let mut state = TopicState::from_stores(&topic.name, topic.partitions);
            let TopicState {
                name, partitions, ..
            } = &mut state;
            for (p, part) in partitions.iter_mut().enumerate() {
                let next = part.next_offset();
                let want = broker.memory_messages.min(next as usize);
                if want == 0 {
                    continue;
                }
                let from = next - want as u64;
                let tail = part.read_store(name, p as u32, from, want)?;
                part.base = from;
                part.log = tail.into();
            }
            broker
                .topics
                .shard(&topic.name)
                .lock()
                .insert(topic.name.clone(), state);
        }
        Ok((broker, report))
    }

    /// Explicitly create (or resize-check) a topic with `n` partitions.
    /// Existing topics keep their partition count.
    pub fn create_topic(&self, topic: &str, partitions: u32) {
        let mut topics = self.topics.shard(topic).lock();
        if let Entry::Vacant(e) = topics.entry(topic.to_owned()) {
            // A store failure here surfaces on the first publish, which
            // retries creation through the same path.
            if let Ok(state) = self.new_topic_state(topic, partitions) {
                e.insert(state);
            }
        }
    }

    fn new_topic_state(&self, topic: &str, partitions: u32) -> Result<TopicState, MqError> {
        match &self.store {
            Some(store) => Ok(TopicState::from_stores(
                topic,
                store.create_partitions(topic, partitions)?,
            )),
            None => Ok(TopicState::new(topic, partitions)),
        }
    }

    fn route(state: &mut TopicState, key: Option<&Bytes>) -> u32 {
        let n = state.partitions.len() as u32;
        match key {
            Some(k) => fnv1a(k) % n,
            None => {
                let p = state.round_robin % n;
                state.round_robin = state.round_robin.wrapping_add(1);
                p
            }
        }
    }
}

impl Broker for LogBroker {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        let (wakers, receipt) = {
            let mut topics = self.topics.shard(topic).lock();
            let state = match topics.entry(topic.to_owned()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(self.new_topic_state(topic, self.default_partitions)?),
            };
            let partition = Self::route(state, key.as_ref());
            let part = &mut state.partitions[partition as usize];
            let offset = part.next_offset();
            // Durability first: the record is on the (page-cached) log
            // before any subscriber can observe it, so an acknowledged
            // offset is always replayable after a crash.
            if let Some(store) = &mut part.store {
                store
                    .append(key.as_deref(), &payload)
                    .map_err(|e| MqError::Store {
                        message: format!("appending to {topic:?}: {e}"),
                    })?;
            }
            let message = Message {
                topic: state.name.clone(),
                partition,
                offset,
                key,
                payload,
            };
            part.log.push_back(message.clone());
            // The memory window is a cache, not the log: evicted offsets
            // stay readable through the store.
            if part.store.is_some() {
                while part.log.len() > self.memory_messages {
                    part.log.pop_front();
                    part.base += 1;
                }
            }
            state.subscribers.retain(|sub| sub.deliver(message.clone()));
            let wakers = state.subscribers.iter().filter_map(|s| s.waker()).collect();
            (wakers, Receipt { partition, offset })
        };
        // Wake outside the topic lock: wakers may publish in turn.
        wake_all(wakers);
        Ok(receipt)
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        let (handle, subscription) = subscription_pair();
        let mut topics = self.topics.shard(topic).lock();
        let state = match topics.entry(topic.to_owned()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.new_topic_state(topic, self.default_partitions)?),
        };
        // Replay happens under the topic lock, so no message published
        // concurrently can be missed or duplicated. No waker can be
        // registered yet — `Subscription::set_waker` fires immediately
        // when it finds this backlog.
        if let Some(from) = match mode {
            SubscribeMode::Latest => None,
            SubscribeMode::Beginning => Some(0),
            SubscribeMode::FromOffset(from) => Some(from),
        } {
            let mut backlogs: Vec<std::collections::VecDeque<Message>> =
                Vec::with_capacity(state.partitions.len());
            for (p, part) in state.partitions.iter().enumerate() {
                let mut backlog = std::collections::VecDeque::new();
                if from < part.base {
                    // The requested history predates the memory window:
                    // replay the gap from the segment store.
                    let gap = (part.base - from) as usize;
                    backlog.extend(part.read_store(&state.name, p as u32, from, gap)?);
                }
                let skip = from.saturating_sub(part.base) as usize;
                backlog.extend(part.log.iter().skip(skip).cloned());
                backlogs.push(backlog);
            }
            // Interleave the replay round-robin across partitions
            // (per-partition order is the only ordering the broker
            // guarantees, so this is free to do). Sequential replay —
            // all of partition 0, then all of partition 1 — livelocks
            // a resumed subscriber on a flaky link: resuming from the
            // *lowest* partition watermark, every short-lived
            // connection spends its whole life re-receiving the lead
            // partition's duplicates and dies before the lagging
            // partition's first new message (chaos-suite find).
            let mut live = true;
            while live {
                live = false;
                for backlog in &mut backlogs {
                    if let Some(m) = backlog.pop_front() {
                        let _ = handle.deliver(m);
                        live = true;
                    }
                }
            }
        }
        state.subscribers.push(handle);
        Ok(subscription)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        let topics = self.topics.shard(topic).lock();
        let state = match topics.get(topic) {
            Some(s) => s,
            None => return Ok(Vec::new()),
        };
        let part =
            state
                .partitions
                .get(partition as usize)
                .ok_or_else(|| MqError::UnknownPartition {
                    topic: topic.to_owned(),
                    partition,
                })?;
        if from_offset < part.base {
            // The store holds the full log (its tail duplicates the
            // memory window), so an evicted starting offset is served
            // entirely from disk — no stitching.
            return part.read_store(&state.name, partition, from_offset, max);
        }
        Ok(part
            .log
            .iter()
            .skip((from_offset - part.base) as usize)
            .take(max)
            .cloned()
            .collect())
    }

    fn flush(&self) -> Result<(), MqError> {
        if self.store.is_none() {
            return Ok(());
        }
        let mut first_err = None;
        self.topics.for_each_mut(|_, state| {
            for part in &mut state.partitions {
                if let Some(store) = &mut part.store {
                    if let (Err(e), None) = (store.sync(), &first_err) {
                        first_err = Some(MqError::Store {
                            message: format!("fsync: {e}"),
                        });
                    }
                }
            }
        });
        first_err.map_or(Ok(()), Err)
    }

    fn persistent(&self) -> bool {
        true
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.topics
            .with(topic, |s| s.map(|s| s.partitions.len() as u32))
            .unwrap_or(1)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.topics
            .with(topic, |s| {
                s.map(|s| s.partitions.iter().map(PartitionLog::next_offset).sum())
            })
            .unwrap_or(0)
    }

    fn delete_topic(&self, topic: &str) -> bool {
        // Dropping the state drops every SubscriberHandle with it
        // (live subscriptions observe disconnection on their next recv)
        // and unmaps the partition stores — which must happen *before*
        // their directory is removed.
        let in_memory = self.topics.remove(topic).is_some();
        let on_disk = self
            .store
            .as_ref()
            .is_some_and(|s| s.delete_topic(topic).unwrap_or(false));
        in_memory || on_disk
    }

    fn topic_names(&self) -> Vec<String> {
        self.topics.names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::TestDir;
    use crate::store::{dir_disk_bytes, FsyncPolicy};
    use std::time::Duration;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn publish_assigns_dense_offsets() {
        let b = LogBroker::new();
        for i in 0..4u64 {
            let r = b.publish("t", None, payload("x")).unwrap();
            assert_eq!(r.offset, i);
            assert_eq!(r.partition, 0);
        }
        assert_eq!(b.retained("t"), 4);
    }

    #[test]
    fn late_subscriber_replays_history() {
        let b = LogBroker::new();
        b.publish("t", None, payload("m0")).unwrap();
        b.publish("t", None, payload("m1")).unwrap();
        let sub = b.subscribe("t", SubscribeMode::Beginning).unwrap();
        b.publish("t", None, payload("m2")).unwrap();
        let got: Vec<String> = (0..3)
            .map(|_| {
                sub.recv_timeout(Duration::from_secs(1))
                    .unwrap()
                    .payload_str()
                    .into_owned()
            })
            .collect();
        assert_eq!(got, vec!["m0", "m1", "m2"]);
    }

    #[test]
    fn subscribe_from_offset() {
        let b = LogBroker::new();
        for i in 0..5 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        let sub = b.subscribe("t", SubscribeMode::FromOffset(3)).unwrap();
        assert_eq!(sub.recv().unwrap().payload_str(), "m3");
        assert_eq!(sub.recv().unwrap().payload_str(), "m4");
        assert_eq!(sub.try_recv().unwrap(), None);
    }

    #[test]
    fn fetch_replays_without_subscribing() {
        let b = LogBroker::new();
        for i in 0..10 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        let page1 = b.fetch("t", 0, 0, 4).unwrap();
        assert_eq!(page1.len(), 4);
        assert_eq!(page1[0].payload_str(), "m0");
        let page2 = b.fetch("t", 0, 4, 100).unwrap();
        assert_eq!(page2.len(), 6);
        assert_eq!(page2[5].payload_str(), "m9");
        assert!(b.fetch("missing", 0, 0, 10).unwrap().is_empty());
        assert!(matches!(
            b.fetch("t", 9, 0, 10),
            Err(MqError::UnknownPartition { .. })
        ));
    }

    #[test]
    fn keyed_messages_stick_to_partitions() {
        let b = LogBroker::with_default_partitions(4);
        let key = Bytes::from_static(b"sa.T7");
        let mut partitions = std::collections::HashSet::new();
        for _ in 0..10 {
            let r = b.publish("t", Some(key.clone()), payload("x")).unwrap();
            partitions.insert(r.partition);
        }
        assert_eq!(partitions.len(), 1, "same key must route identically");
    }

    #[test]
    fn per_partition_order_is_preserved() {
        let b = LogBroker::with_default_partitions(3);
        // Round-robin spreads keyless messages.
        for i in 0..9 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        for p in 0..3 {
            let log = b.fetch("t", p, 0, 100).unwrap();
            assert_eq!(log.len(), 3);
            let offsets: Vec<u64> = log.iter().map(|m| m.offset).collect();
            assert_eq!(offsets, vec![0, 1, 2], "dense offsets per partition");
        }
    }

    #[test]
    fn replay_then_live_has_no_gap_or_duplicate() {
        let b = std::sync::Arc::new(LogBroker::new());
        for i in 0..100 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        // Subscribe from the beginning while another thread publishes.
        let b2 = b.clone();
        let publisher = std::thread::spawn(move || {
            for i in 100..200 {
                b2.publish("t", None, payload(&format!("m{i}"))).unwrap();
            }
        });
        let sub = b.subscribe("t", SubscribeMode::Beginning).unwrap();
        publisher.join().unwrap();
        let mut seen = Vec::new();
        while let Some(m) = sub.try_recv().unwrap() {
            seen.push(m.payload_str().into_owned());
        }
        assert_eq!(seen.len(), 200);
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s, &format!("m{i}"));
        }
    }

    #[test]
    fn create_topic_controls_partitions() {
        let b = LogBroker::new();
        b.create_topic("wide", 8);
        assert_eq!(b.partitions("wide"), 8);
        // Existing topics keep their count.
        b.create_topic("wide", 2);
        assert_eq!(b.partitions("wide"), 8);
        assert_eq!(b.partitions("unknown"), 1);
    }

    #[test]
    fn delete_topic_reclaims_retention_and_disconnects_subscribers() {
        let b = LogBroker::new();
        b.publish("t", None, payload("m0")).unwrap();
        let sub = b.subscribe("t", SubscribeMode::Beginning).unwrap();
        assert!(b.delete_topic("t"));
        assert!(!b.delete_topic("t"), "already gone");
        assert_eq!(b.retained("t"), 0);
        // The queued replay drains, then the channel reports the broker
        // side gone.
        assert_eq!(sub.recv().unwrap().payload_str(), "m0");
        assert!(matches!(sub.recv(), Err(MqError::Disconnected)));
        // The name is reusable from scratch.
        b.publish("t", None, payload("fresh")).unwrap();
        assert_eq!(b.retained("t"), 1);
    }

    #[test]
    fn fnv_is_stable() {
        use crate::broker::fnv1a;
        assert_eq!(fnv1a(b""), 0x811c9dc5);
        assert_eq!(fnv1a(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    // -- durable-broker tests ------------------------------------------

    fn durable_config() -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::Never,
            segment_bytes: 512,
            memory_messages: 8,
        }
    }

    #[test]
    fn durable_broker_survives_reopen_with_same_offsets() {
        let dir = TestDir::new("log-reopen");
        {
            let (b, report) = LogBroker::open(dir.path(), durable_config()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            for i in 0..30 {
                b.publish("run/r1/status", None, payload(&format!("m{i}")))
                    .unwrap();
            }
            b.publish("run/r1/result/T", Some(payload("k")), payload("done"))
                .unwrap();
        }
        let (b, report) = LogBroker::open(dir.path(), durable_config()).unwrap();
        assert_eq!(report.topics, 2);
        assert_eq!(report.messages, 31);
        // Offsets resume where they left off…
        let r = b.publish("run/r1/status", None, payload("m30")).unwrap();
        assert_eq!(r.offset, 30);
        assert_eq!(b.retained("run/r1/status"), 31);
        let mut names = b.topic_names();
        names.sort();
        assert_eq!(names, vec!["run/r1/result/T", "run/r1/status"]);
        // …and the full history replays from disk, key included.
        let all = b.fetch("run/r1/status", 0, 0, 100).unwrap();
        assert_eq!(all.len(), 31);
        assert_eq!(all[0].payload_str(), "m0");
        assert_eq!(all[30].payload_str(), "m30");
        let result = b.fetch("run/r1/result/T", 0, 0, 10).unwrap();
        assert_eq!(result[0].key.as_deref(), Some(&b"k"[..]));
    }

    #[test]
    fn evicted_offsets_fall_through_to_segment_reads() {
        let dir = TestDir::new("log-evict");
        let (b, _) = LogBroker::open(dir.path(), durable_config()).unwrap();
        for i in 0..100 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        // The window keeps only the last 8 messages in memory…
        assert_eq!(b.retained("t"), 100);
        // …but fetch and subscribe still reach offset 0.
        let head = b.fetch("t", 0, 0, 3).unwrap();
        assert_eq!(head.len(), 3);
        assert_eq!(head[0].payload_str(), "m0");
        assert_eq!(head[0].offset, 0);
        let sub = b.subscribe("t", SubscribeMode::Beginning).unwrap();
        for i in 0..100 {
            let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.payload_str(), format!("m{i}"));
            assert_eq!(m.offset, i as u64);
        }
        let mid = b.subscribe("t", SubscribeMode::FromOffset(42)).unwrap();
        assert_eq!(mid.recv().unwrap().payload_str(), "m42");
    }

    #[test]
    fn durable_delete_topic_reclaims_disk() {
        let dir = TestDir::new("log-delete");
        let (b, _) = LogBroker::open(dir.path(), durable_config()).unwrap();
        for i in 0..50 {
            b.publish("run/gone/status", None, payload(&format!("m{i}")))
                .unwrap();
        }
        b.flush().unwrap();
        assert!(dir_disk_bytes(&dir.path().join("topics")) > 0);
        assert!(b.delete_topic("run/gone/status"));
        assert_eq!(
            dir_disk_bytes(&dir.path().join("topics")),
            0,
            "deleted run's bytes must leave the disk"
        );
        assert_eq!(b.retained("run/gone/status"), 0);
    }

    #[test]
    fn recovered_topics_reload_memory_window_tail() {
        let dir = TestDir::new("log-warm-tail");
        {
            let (b, _) = LogBroker::open(dir.path(), durable_config()).unwrap();
            for i in 0..100 {
                b.publish("t", None, payload(&format!("m{i}"))).unwrap();
            }
            // Killed here: no flush, no graceful close.
        }
        let (b, report) = LogBroker::open(dir.path(), durable_config()).unwrap();
        assert_eq!(report.messages, 100);
        // The last `memory_messages` records are hot again, at the same
        // eviction watermark the crashed broker had…
        b.topics.with("t", |s| {
            let part = &s.expect("recovered topic").partitions[0];
            assert_eq!(part.base, 92);
            assert_eq!(part.log.len(), 8);
            assert_eq!(part.log[0].offset, 92);
            assert_eq!(part.log.back().unwrap().payload_str(), "m99");
        });
        // …so a tail subscriber replays from memory, a historical one
        // crosses the disk/memory seam without gap or duplicate…
        let tail = b.subscribe("t", SubscribeMode::FromOffset(95)).unwrap();
        for i in 95..100 {
            let m = tail.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.offset, i);
            assert_eq!(m.payload_str(), format!("m{i}"));
        }
        let full = b.subscribe("t", SubscribeMode::Beginning).unwrap();
        for i in 0..100 {
            let m = full.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.offset, i);
        }
        // …and publishing resumes at the recovered offset.
        let r = b.publish("t", None, payload("m100")).unwrap();
        assert_eq!(r.offset, 100);
        assert_eq!(
            tail.recv_timeout(Duration::from_secs(1)).unwrap().offset,
            100
        );
    }

    #[test]
    fn open_refuses_foreign_dir() {
        let dir = TestDir::new("log-foreign");
        std::fs::write(dir.path().join("precious.txt"), b"not ours").unwrap();
        let err = LogBroker::open(dir.path(), DurabilityConfig::default())
            .err()
            .expect("a foreign dir must be refused");
        assert!(matches!(err, MqError::Store { .. }), "{err}");
    }
}
