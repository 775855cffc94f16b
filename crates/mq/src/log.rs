//! The Kafka-like persistent log broker.
//!
//! Topics are split into partitions; each partition is an append-only log
//! with dense offsets. Keys hash to partitions ([`partition_of`]),
//! keyless messages round-robin. Subscribers may attach at the head,
//! from the beginning, or from an offset; [`Broker::fetch`] reads
//! retained messages directly — "we exploit the ability of Kafka to
//! persist the messages exchanged by the services and to replay them on
//! demand" (§IV-B).
//!
//! Retention is layered: every partition keeps its retained records as
//! bytes in a `RecordLog` — all of them on a broker made by
//! [`LogBroker::new`], the last `memory_messages` on one opened with
//! [`LogBroker::open`], which additionally appends every publish to the
//! [`crate::store`] segment files *before* fan-out. Offsets evicted from
//! the memory window fall through to segment reads transparently, so
//! replay depth is bounded by disk, not RAM — and a restarted broker
//! resumes the same offsets it crashed with. Fan-out hands subscribers
//! the publisher's own [`Message`]; replay and [`Broker::fetch`] build
//! fresh ones, copying key and payload out of the log.

use crate::broker::{
    fnv1a, subscription_pair, Broker, Receipt, SubscribeMode, SubscriberHandle, Subscription,
    Wakers,
};
use crate::error::MqError;
use crate::message::Message;
use crate::store::segment::NO_KEY;
use crate::store::{DurabilityConfig, PartitionStore, SegmentStore};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Capacity of a [`RecordLog`]'s first chunk; each next one doubles, up
/// to [`MAX_CHUNK`].
const FIRST_CHUNK: usize = 256;
/// Capacity of a [`RecordLog`]'s chunks once grown.
const MAX_CHUNK: usize = 64 * 1024;

/// A partition's retained records, as bytes. Each record is its key
/// length (u32 LE, [`NO_KEY`] when keyless), key, payload length (u32 LE)
/// and payload, appended to the newest chunk. A chunk's capacity is
/// fixed when it is made — double the last one's, from [`FIRST_CHUNK`] up
/// to [`MAX_CHUNK`], or the record's own size if that is larger — so a
/// chunk is never reallocated, and a record that does not fit starts the
/// next chunk. The oldest chunk is freed once every record in it has
/// been dropped. One index entry per record locates it.
/// There is no CRC: the segment format's guards against torn disk
/// writes, which memory cannot have.
#[derive(Default)]
struct RecordLog {
    chunks: VecDeque<Vec<u8>>,
    /// Sequence number of `chunks[0]` (sequence numbers wrap).
    first_chunk: u32,
    /// Per record, oldest first: its chunk's sequence number and its
    /// start within that chunk.
    index: VecDeque<(u32, u32)>,
}

impl RecordLog {
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Append one record. Lengths are u32 like the segment format's: a
    /// message is bounded by the wire's frame limit long before that.
    fn push(&mut self, key: Option<&[u8]>, payload: &[u8]) {
        let size = 8 + key.map_or(0, <[u8]>::len) + payload.len();
        if self
            .chunks
            .back()
            .is_none_or(|c| c.capacity() - c.len() < size)
        {
            let next = self
                .chunks
                .back()
                .map_or(FIRST_CHUNK, |c| (c.capacity() * 2).min(MAX_CHUNK));
            self.chunks.push_back(Vec::with_capacity(next.max(size)));
        }
        let seq = self.first_chunk.wrapping_add(self.chunks.len() as u32 - 1);
        let chunk = self.chunks.back_mut().expect("a chunk with room");
        self.index.push_back((seq, chunk.len() as u32));
        chunk.extend_from_slice(&key.map_or(NO_KEY, |k| k.len() as u32).to_le_bytes());
        chunk.extend_from_slice(key.unwrap_or_default());
        chunk.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        chunk.extend_from_slice(payload);
    }

    /// Drop the oldest record, and every chunk no retained record is in.
    fn pop_front(&mut self) {
        self.index.pop_front();
        let first_kept = self.index.front().map_or(
            self.first_chunk.wrapping_add(self.chunks.len() as u32),
            |&(seq, _)| seq,
        );
        while self.first_chunk != first_kept {
            self.chunks.pop_front();
            self.first_chunk = self.first_chunk.wrapping_add(1);
        }
    }

    /// Key and payload of record `i` (0 is the oldest retained).
    fn get(&self, i: usize) -> (Option<&[u8]>, &[u8]) {
        fn split_len(bytes: &[u8]) -> (u32, &[u8]) {
            let (len, rest) = bytes.split_at(4);
            (u32::from_le_bytes(len.try_into().unwrap()), rest)
        }
        let (seq, start) = self.index[i];
        let chunk = &self.chunks[seq.wrapping_sub(self.first_chunk) as usize];
        let (key_len, rest) = split_len(&chunk[start as usize..]);
        let (key, rest) = match key_len {
            NO_KEY => (None, rest),
            n => {
                let (key, rest) = rest.split_at(n as usize);
                (Some(key), rest)
            }
        };
        let (payload_len, rest) = split_len(rest);
        (key, &rest[..payload_len as usize])
    }
}

/// One partition's log: a window of records in memory over an optional
/// on-disk segment store. `base` is the offset of the window's first
/// record — always 0 for a purely in-memory broker, and the eviction
/// watermark for a durable one.
struct PartitionLog {
    base: u64,
    log: RecordLog,
    store: Option<PartitionStore>,
}

impl PartitionLog {
    fn new(store: Option<PartitionStore>) -> Self {
        PartitionLog {
            base: store.as_ref().map_or(0, PartitionStore::next_offset),
            log: RecordLog::default(),
            store,
        }
    }

    /// Offset the next publish gets.
    fn next_offset(&self) -> u64 {
        self.base + self.log.len() as u64
    }

    /// Append a record to the memory window, then drop the oldest until
    /// at most `window` remain.
    fn push(&mut self, key: Option<&[u8]>, payload: &[u8], window: usize) {
        self.log.push(key, payload);
        while self.log.len() > window {
            self.log.pop_front();
            self.base += 1;
        }
    }

    /// Up to `max` messages `[from, …)`, built fresh: copied out of the
    /// memory window, or — when `from` predates it — read from the
    /// segment store, which holds the full log (empty without a store).
    fn read(
        &self,
        name: &Arc<str>,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        if from < self.base {
            let Some(store) = &self.store else {
                return Ok(Vec::new());
            };
            let records = store.read(from, max).map_err(|e| MqError::Store {
                message: format!("reading partition {partition}: {e}"),
            })?;
            return Ok(records
                .into_iter()
                .map(|(offset, key, payload)| Message {
                    topic: name.clone(),
                    partition,
                    offset,
                    key,
                    payload,
                })
                .collect());
        }
        let skip = usize::try_from(from - self.base).unwrap_or(usize::MAX);
        Ok((skip..self.log.len())
            .take(max)
            .map(|i| {
                let (key, payload) = self.log.get(i);
                Message {
                    topic: name.clone(),
                    partition,
                    offset: self.base + i as u64,
                    key: key.map(Bytes::copy_from_slice),
                    payload: Bytes::copy_from_slice(payload),
                }
            })
            .collect())
    }
}

/// One topic: its partitions' logs and its live subscribers. A publish
/// appends a copy of key and payload to its partition's [`RecordLog`]
/// and hands every subscriber a clone of the publisher's [`Message`], so
/// fan-out shares one payload while the log keeps its own: a fan-out's K
/// records hold K copies of the payload it encoded once.
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

/// Persistent, partitioned, replayable broker. One lock guards the
/// topic map: every operation addresses one topic and wakes
/// subscribers after releasing it, and a run is two topics, so there is
/// nothing to split it for.
///
/// [`LogBroker::new`] retains messages in memory only; [`LogBroker::open`]
/// backs every partition with the file-based segment store, making
/// retention and offsets survive a broker restart.
pub struct LogBroker {
    topics: Mutex<HashMap<String, TopicState>>,
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
            topics: Mutex::default(),
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
            topics: Mutex::default(),
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
                for m in part.read(name, p as u32, from, want)? {
                    part.log.push(m.key.as_deref(), &m.payload);
                }
                part.base = from;
            }
            broker.topics.lock().insert(topic.name.clone(), state);
        }
        Ok((broker, report))
    }

    /// Explicitly create (or resize-check) a topic with `n` partitions.
    /// Existing topics keep their partition count.
    pub fn create_topic(&self, topic: &str, partitions: u32) {
        let mut topics = self.topics.lock();
        if !topics.contains_key(topic) {
            // A store failure here surfaces on the first publish, which
            // retries creation through the same path.
            if let Ok(state) = self.new_topic_state(topic, partitions) {
                topics.insert(topic.to_owned(), state);
            }
        }
    }

    /// `topic`'s state in `topics`, made with the default partition
    /// count when the topic is new — the only time its name is copied.
    fn topic_state<'a>(
        &self,
        topics: &'a mut HashMap<String, TopicState>,
        topic: &str,
    ) -> Result<&'a mut TopicState, MqError> {
        if !topics.contains_key(topic) {
            let state = self.new_topic_state(topic, self.default_partitions)?;
            topics.insert(topic.to_owned(), state);
        }
        Ok(topics.get_mut(topic).expect("the topic is in the map"))
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
            Some(k) => partition_of(k, n),
            None => {
                let p = state.round_robin % n;
                state.round_robin = state.round_robin.wrapping_add(1);
                p
            }
        }
    }
}

/// The partition a message keyed `key` lands in, of a topic's
/// `partitions`: the routing rule of [`LogBroker`], so a reader that
/// knows a key knows where the log keeps its messages.
pub fn partition_of(key: &[u8], partitions: u32) -> u32 {
    fnv1a(key) % partitions.max(1)
}

impl Broker for LogBroker {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        let (wakers, receipt) = {
            let mut topics = self.topics.lock();
            let state = self.topic_state(&mut topics, topic)?;
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
            // The memory window is a cache, not the log: evicted offsets
            // stay readable through the store.
            part.push(key.as_deref(), &payload, self.memory_messages);
            let message = Message {
                topic: state.name.clone(),
                partition,
                offset,
                key,
                payload,
            };
            let mut wakers = Wakers::default();
            state
                .subscribers
                .retain(|sub| sub.deliver_collect(message.clone(), &mut wakers));
            (wakers, Receipt { partition, offset })
        };
        // Wake outside the topic lock: wakers may publish in turn.
        wakers.fire();
        Ok(receipt)
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        let (handle, subscription) = subscription_pair();
        let mut topics = self.topics.lock();
        let state = self.topic_state(&mut topics, topic)?;
        // Replay happens under the topic lock, so no message published
        // concurrently can be missed or duplicated. No waker can be
        // registered yet — `Subscription::set_waker` fires immediately
        // when it finds this backlog.
        if let Some(from) = match mode {
            SubscribeMode::Latest => None,
            SubscribeMode::Beginning => Some(0),
            SubscribeMode::FromOffset(from) => Some(from),
        } {
            let mut backlogs: Vec<VecDeque<Message>> = Vec::with_capacity(state.partitions.len());
            for (p, part) in state.partitions.iter().enumerate() {
                let mut backlog = VecDeque::new();
                if from < part.base {
                    // The requested history predates the memory window:
                    // replay the gap from the segment store.
                    let gap = (part.base - from) as usize;
                    backlog.extend(part.read(&state.name, p as u32, from, gap)?);
                }
                backlog.extend(part.read(
                    &state.name,
                    p as u32,
                    from.max(part.base),
                    usize::MAX,
                )?);
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
        let topics = self.topics.lock();
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
        // The store holds the full log (its tail duplicates the memory
        // window), so an evicted starting offset is served entirely from
        // disk — no stitching.
        part.read(&state.name, partition, from_offset, max)
    }

    fn flush(&self) -> Result<(), MqError> {
        if self.store.is_none() {
            return Ok(());
        }
        let mut first_err = None;
        for state in self.topics.lock().values_mut() {
            for part in &mut state.partitions {
                if let Some(store) = &mut part.store {
                    if let (Err(e), None) = (store.sync(), &first_err) {
                        first_err = Some(MqError::Store {
                            message: format!("fsync: {e}"),
                        });
                    }
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.topics
            .lock()
            .get(topic)
            .map_or(1, |s| s.partitions.len() as u32)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.topics.lock().get(topic).map_or(0, |s| {
            s.partitions.iter().map(PartitionLog::next_offset).sum()
        })
    }

    fn delete_topic(&self, topic: &str) -> bool {
        // Dropping the state drops every SubscriberHandle with it
        // (live subscriptions observe disconnection on their next recv)
        // and unmaps the partition stores — which must happen *before*
        // their directory is removed.
        let in_memory = self.topics.lock().remove(topic).is_some();
        let on_disk = self
            .store
            .as_ref()
            .is_some_and(|s| s.delete_topic(topic).unwrap_or(false));
        in_memory || on_disk
    }

    fn topic_names(&self) -> Vec<String> {
        self.topics.lock().keys().cloned().collect()
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
        // The queued replay drains, then the subscription reports the broker
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

    // -- the record log --------------------------------------------------

    #[test]
    fn records_keep_keys_and_payloads_exactly() {
        let mut log = RecordLog::default();
        log.push(Some(b"sa.T1"), b"keyed");
        log.push(None, b"keyless");
        log.push(Some(b""), b"empty key");
        log.push(Some(b"k"), b"");
        assert_eq!(log.len(), 4);
        assert_eq!(log.get(0), (Some(&b"sa.T1"[..]), &b"keyed"[..]));
        assert_eq!(log.get(1), (None, &b"keyless"[..]));
        assert_eq!(log.get(2), (Some(&b""[..]), &b"empty key"[..]));
        assert_eq!(log.get(3), (Some(&b"k"[..]), &b""[..]));
        // Through the broker: an empty key is still a key.
        let b = LogBroker::new();
        b.publish("t", Some(Bytes::new()), payload("x")).unwrap();
        b.publish("t", None, Bytes::new()).unwrap();
        let got = b.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(got[0].key, Some(Bytes::new()));
        assert_eq!(got[0].payload_str(), "x");
        assert_eq!(got[1].key, None);
        assert!(got[1].payload.is_empty());
    }

    #[test]
    fn a_record_larger_than_the_largest_chunk_gets_a_chunk_of_its_own() {
        let mut log = RecordLog::default();
        log.push(None, b"small");
        let big = vec![7u8; 2 * MAX_CHUNK];
        log.push(Some(b"big"), &big);
        log.push(None, b"after");
        assert_eq!(log.get(0), (None, &b"small"[..]));
        assert_eq!(log.get(1), (Some(&b"big"[..]), &big[..]));
        assert_eq!(log.get(2), (None, &b"after"[..]));
        let index: Vec<(u32, u32)> = log.index.iter().copied().collect();
        assert_eq!(index, [(0, 0), (1, 0), (2, 0)]);
        assert!(log.chunks[1].capacity() >= 2 * MAX_CHUNK + 11);
        assert_eq!(log.chunks[2].capacity(), MAX_CHUNK);
    }

    /// Payload `i` of [`chunked_topic`]: 56 bytes, so a keyless record
    /// takes 64.
    fn filler(i: u64) -> Bytes {
        Bytes::from(format!("m{i:02}{}", "-".repeat(53)))
    }

    /// 28 records of 64 bytes in `t`: offsets 0–3 fill the 256-byte
    /// first chunk, 4–11 the 512-byte second, 12–27 the 1 KiB third.
    fn chunked_topic() -> LogBroker {
        let b = LogBroker::new();
        for i in 0..28 {
            b.publish("t", None, filler(i)).unwrap();
        }
        b
    }

    #[test]
    fn chunks_double_and_fill_in_place() {
        let b = chunked_topic();
        let topics = b.topics.lock();
        let log = &topics["t"].partitions[0].log;
        let capacities: Vec<usize> = log.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(capacities, [256, 512, 1024]);
        assert!(log.chunks.iter().all(|c| c.len() == c.capacity()));
        assert_eq!(log.index[3], (0, 192));
        assert_eq!(log.index[4], (1, 0));
        assert_eq!(log.index[12], (2, 0));
        // A chunk is filled where it was first allocated.
        let mut log = RecordLog::default();
        log.push(None, &filler(0));
        let first = log.chunks[0].as_ptr();
        for i in 1..4 {
            log.push(None, &filler(i));
        }
        assert_eq!(log.chunks.len(), 1);
        assert_eq!(log.chunks[0].as_ptr(), first);
    }

    #[test]
    fn reads_start_mid_chunk_on_a_chunk_boundary_and_past_the_end() {
        let b = chunked_topic();
        for (from, first) in [(2, 2), (4, 4), (12, 12), (28, 28), (40, 28)] {
            let want: Vec<u64> = (first..28).collect();
            let fetched = b.fetch("t", 0, from, 100).unwrap();
            assert!(fetched.iter().all(|m| m.payload == filler(m.offset)));
            let offsets: Vec<u64> = fetched.iter().map(|m| m.offset).collect();
            assert_eq!(offsets, want, "fetch from {from}");
            let sub = b.subscribe("t", SubscribeMode::FromOffset(from)).unwrap();
            let mut replayed = Vec::new();
            while let Some(m) = sub.try_recv().unwrap() {
                assert_eq!(m.payload, filler(m.offset));
                replayed.push(m.offset);
            }
            assert_eq!(replayed, want, "replay from {from}");
        }
        // A bounded fetch crosses a chunk boundary.
        let page: Vec<u64> = b
            .fetch("t", 0, 2, 3)
            .unwrap()
            .iter()
            .map(|m| m.offset)
            .collect();
        assert_eq!(page, [2, 3, 4]);
    }

    #[test]
    fn a_two_partition_replay_interleaves_the_partitions() {
        let b = LogBroker::with_default_partitions(2);
        // Round-robin: m0, m2, m4, m6 to partition 0; m1, m3, m5 to 1.
        for i in 0..7 {
            b.publish("t", None, payload(&format!("m{i}"))).unwrap();
        }
        for (mode, want) in [
            (
                SubscribeMode::Beginning,
                vec!["m0", "m1", "m2", "m3", "m4", "m5", "m6"],
            ),
            (
                SubscribeMode::FromOffset(1),
                vec!["m2", "m3", "m4", "m5", "m6"],
            ),
        ] {
            let sub = b.subscribe("t", mode).unwrap();
            let mut got = Vec::new();
            while let Some(m) = sub.try_recv().unwrap() {
                got.push(m.payload_str().into_owned());
            }
            assert_eq!(got, want, "{mode:?}");
        }
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
        {
            let topics = b.topics.lock();
            let state = topics.get("t").expect("recovered topic");
            let part = &state.partitions[0];
            assert_eq!(part.base, 92);
            assert_eq!(part.log.len(), 8);
            let window = part.read(&state.name, 0, part.base, usize::MAX).unwrap();
            assert_eq!(window[0].offset, 92);
            assert_eq!(window.last().unwrap().payload_str(), "m99");
        }
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
    fn the_durable_window_keeps_its_size_and_frees_whole_chunks() {
        let dir = TestDir::new("log-window");
        let (b, _) = LogBroker::open(dir.path(), durable_config()).unwrap();
        for i in 0..100u64 {
            b.publish("t", None, filler(i)).unwrap();
            let topics = b.topics.lock();
            let state = &topics["t"];
            let part = &state.partitions[0];
            let kept = (i as usize + 1).min(8);
            assert_eq!(part.log.len(), kept);
            assert_eq!(part.base, i + 1 - kept as u64);
            // Every chunk after the 256-byte first holds at least the
            // window's 8 records, so the window spans at most two.
            assert!(
                part.log.chunks.len() <= 2,
                "{} chunks",
                part.log.chunks.len()
            );
            let window = part.read(&state.name, 0, part.base, usize::MAX).unwrap();
            let offsets: Vec<u64> = window.iter().map(|m| m.offset).collect();
            assert_eq!(offsets, (part.base..=i).collect::<Vec<_>>());
            assert!(window.iter().all(|m| m.payload == filler(m.offset)));
        }
        // The chunks made so far: 256, 512, 1 KiB, 2 KiB and 4 KiB of
        // 64-byte records hold offsets 0–123, so the last is the fifth.
        let topics = b.topics.lock();
        let log = &topics["t"].partitions[0].log;
        assert_eq!(log.first_chunk + log.chunks.len() as u32, 5);
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
