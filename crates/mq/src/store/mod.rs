//! File-backed segmented log store — the persistence layer under
//! [`LogBroker`](crate::LogBroker).
//!
//! This is the durability primitive the paper's resilience story rests
//! on: "the ability of Kafka to persist the messages exchanged by the
//! services and to replay them on demand" (§IV-B). Every publish is
//! appended to an on-disk segment *before* in-memory fan-out, so a
//! daemon killed mid-run comes back serving the same offsets and the
//! client-side reconnect-replay machinery completes in-flight runs with
//! zero client changes.
//!
//! ## Data-dir layout
//!
//! | path                                      | content                            |
//! |-------------------------------------------|------------------------------------|
//! | `<root>/MANIFEST`                         | schema stamp (see [`manifest`])    |
//! | `<root>/topics/<enc>/…/<enc>/`            | one dir per topic path component   |
//! | `…/<topic>/@p<N>/`                        | partition `N` of that topic        |
//! | `…/@p<N>/<base_offset:020>.seg`           | segment: records from that offset  |
//! | `…/@p<N>/<base_offset:020>.idx`           | sparse index sidecar (sealed only) |
//!
//! Topic names mirror the broker's `run/<id>/…` namespace directly:
//! each `/`-separated component becomes one directory level, with
//! non-`[A-Za-z0-9._-]` bytes percent-encoded (and `.`/`..`/empty
//! components escaped) so any valid topic name is a safe path. The
//! `@p<N>` partition level cannot collide with a topic component
//! because `@` is always percent-encoded. Deleting a run's topics
//! therefore reclaims a whole `topics/run/<id>/` subtree.
//!
//! Segment files are created at their full capacity (sparse) and
//! appended through a shared mmap; a segment **seals** on rotation —
//! synced, truncated to its exact length, and given its `.idx` sidecar.
//! The record and index formats are documented in [`segment`] and
//! [`index`]; crash recovery (torn-tail truncation, index rebuilds,
//! next-offset reconstruction) in [`recovery`].

pub mod index;
pub mod manifest;
pub mod recovery;
pub mod segment;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::metrics::{self, Counter, Gauge};
use crate::MqError;
use segment::{record_frame_len, SealedSegment, SegmentWriter};

/// The store's instrumentation handles, registered once in the global
/// metric registry and shared by every partition (one relaxed add per
/// append — no per-store registration bookkeeping).
struct StoreMetrics {
    appends: Arc<Counter>,
    append_bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
    rotations: Arc<Counter>,
    read_batches: Arc<Counter>,
    recovery_truncated: Arc<Counter>,
    disk_bytes: Arc<Gauge>,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = metrics::global();
        StoreMetrics {
            appends: m.counter(
                "gf_store_appends_total",
                "records appended to segment files",
            ),
            append_bytes: m.counter(
                "gf_store_append_bytes_total",
                "record frame bytes appended to segment files",
            ),
            fsyncs: m.counter(
                "gf_store_fsyncs_total",
                "msync calls issued by the fsync policy",
            ),
            rotations: m.counter(
                "gf_store_rotations_total",
                "segment rotations (seal + fresh active segment)",
            ),
            read_batches: m.counter(
                "gf_store_read_batches_total",
                "cold reads served from segment files instead of the memory window",
            ),
            recovery_truncated: m.counter(
                "gf_store_recovery_truncated_bytes_total",
                "torn-tail bytes truncated during crash recovery",
            ),
            disk_bytes: m.gauge(
                "gf_store_disk_bytes",
                "approximate bytes occupied by the data dir",
            ),
        }
    })
}

/// When appended records are forced to stable storage.
///
/// Appends always land in the OS page cache immediately, which survives
/// a *process* crash; the policy only governs a *machine* crash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Blocking `msync(MS_SYNC)` after every append: an acknowledged
    /// record survives a machine crash. Every append waits on the disk.
    Always,
    /// Never sync explicitly (the default): the OS writes back at its
    /// leisure, so a machine crash may lose what it had not yet written.
    #[default]
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI knob: `always` or `never`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// Tuning knobs of a durable [`LogBroker`](crate::LogBroker).
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Fsync policy for appended records.
    pub fsync: FsyncPolicy,
    /// Segment capacity: rotation happens when the next record would
    /// not fit. Default 64 MiB.
    pub segment_bytes: usize,
    /// Per-partition window of records kept in memory for hot replay:
    /// exactly the last `memory_messages`, older offsets served from
    /// segment reads. Memory is freed a chunk at a time, once every
    /// record in the chunk has left the window. Default 1024.
    pub memory_messages: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::default(),
            segment_bytes: 64 * 1024 * 1024,
            memory_messages: 1024,
        }
    }
}

// ---------------------------------------------------------------------
// Topic name <-> directory path codec.
// ---------------------------------------------------------------------

fn byte_is_plain(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')
}

/// Encode one `/`-separated topic component as a safe directory name.
pub(crate) fn encode_component(component: &str) -> String {
    match component {
        "" => return "%".to_owned(),
        "." => return "%2E".to_owned(),
        ".." => return "%2E%2E".to_owned(),
        _ => {}
    }
    let mut out = String::with_capacity(component.len());
    for &b in component.as_bytes() {
        if byte_is_plain(b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Decode a directory name back to its topic component; `None` on
/// malformed escapes (a foreign file recovery should skip).
pub(crate) fn decode_component(name: &str) -> Option<String> {
    if name == "%" {
        return Some(String::new());
    }
    let bytes = name.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// The directory a topic's partitions live under.
pub(crate) fn topic_dir(root: &Path, topic: &str) -> PathBuf {
    let mut dir = root.join("topics");
    for component in topic.split('/') {
        dir.push(encode_component(component));
    }
    dir
}

fn io_err(context: &str, err: io::Error) -> MqError {
    MqError::Store {
        message: format!("{context}: {err}"),
    }
}

/// Total *allocated* bytes under `path` (block-based, so sparse
/// capacity-sized segment files count what they actually occupy — the
/// `du` a retention test asserts on).
pub fn dir_disk_bytes(path: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    let mut total = 0u64;
    let entries = match std::fs::read_dir(path) {
        Ok(e) => e,
        Err(_) => return 0,
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            total += dir_disk_bytes(&entry.path());
        } else {
            total += meta.blocks() * 512;
        }
    }
    total
}

// ---------------------------------------------------------------------
// Per-partition store: sealed segments + the active writer.
// ---------------------------------------------------------------------

/// One partition's on-disk log. Not internally locked — the owning
/// broker serialises access under its topic lock.
pub struct PartitionStore {
    dir: PathBuf,
    config: DurabilityConfig,
    sealed: Vec<SealedSegment>,
    active: SegmentWriter,
}

impl PartitionStore {
    fn create(dir: PathBuf, config: DurabilityConfig) -> io::Result<PartitionStore> {
        std::fs::create_dir_all(&dir)?;
        let active = SegmentWriter::create(&dir, 0, config.segment_bytes)?;
        Ok(PartitionStore {
            dir,
            config,
            sealed: Vec::new(),
            active,
        })
    }

    pub(crate) fn from_parts(
        dir: PathBuf,
        config: DurabilityConfig,
        sealed: Vec<SealedSegment>,
        active: SegmentWriter,
    ) -> PartitionStore {
        PartitionStore {
            dir,
            config,
            sealed,
            active,
        }
    }

    /// The offset the next appended record will carry.
    pub fn next_offset(&self) -> u64 {
        self.active.base_offset + self.active.records
    }

    /// Number of sealed segments (rotation observability for tests).
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    fn should_rotate(&self, frame: usize) -> bool {
        !self.active.is_empty() && frame > self.active.remaining()
    }

    /// Append one record, rotating and applying the fsync policy.
    pub fn append(&mut self, key: Option<&[u8]>, payload: &[u8]) -> io::Result<()> {
        let frame = record_frame_len(key.map(<[u8]>::len), payload.len());
        if self.should_rotate(frame) {
            self.roll()?;
        }
        if frame > self.active.remaining() {
            // A single record larger than a whole segment: grow rather
            // than refuse.
            self.active.ensure_cap(frame)?;
        }
        self.active.append(key, payload);
        let m = store_metrics();
        m.appends.inc();
        m.append_bytes.add(frame as u64);
        m.disk_bytes.add(frame as u64);
        if self.config.fsync == FsyncPolicy::Always {
            self.active.sync()?;
            m.fsyncs.inc();
        }
        Ok(())
    }

    fn roll(&mut self) -> io::Result<()> {
        let next_base = self.next_offset();
        let fresh = SegmentWriter::create(&self.dir, next_base, self.config.segment_bytes)?;
        let old = std::mem::replace(&mut self.active, fresh);
        self.sealed.push(old.seal()?);
        store_metrics().rotations.inc();
        Ok(())
    }

    /// Read up to `max` records starting at offset `from` (clamped up
    /// to the log's start) as `(offset, key, payload)`.
    pub fn read(&self, from: u64, max: usize) -> io::Result<Vec<(u64, Option<Bytes>, Bytes)>> {
        store_metrics().read_batches.inc();
        let mut out = Vec::new();
        let first = self
            .sealed
            .partition_point(|s| s.base_offset + s.records <= from);
        for seg in &self.sealed[first..] {
            if out.len() >= max {
                return Ok(out);
            }
            let rel = from.saturating_sub(seg.base_offset);
            seg.read(rel, max - out.len(), &mut out)?;
        }
        if out.len() < max {
            let rel = from.saturating_sub(self.active.base_offset);
            self.active.read(rel, max - out.len(), &mut out);
        }
        Ok(out)
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync()
    }
}

// ---------------------------------------------------------------------
// The store façade.
// ---------------------------------------------------------------------

/// A topic reconstructed from disk at startup.
pub struct RecoveredTopic {
    /// Decoded topic name (e.g. `run/abc/status`).
    pub name: String,
    /// Partition stores in partition order, positioned at their
    /// recovered next-offsets.
    pub partitions: Vec<PartitionStore>,
    /// Torn-tail bytes truncated during recovery (crash artifacts).
    pub truncated_bytes: u64,
}

/// Handle on a validated data dir: creates and deletes topic trees.
/// Per-partition I/O happens through the [`PartitionStore`]s it hands
/// out, which the broker owns under its topic locks.
pub struct SegmentStore {
    root: PathBuf,
    config: DurabilityConfig,
}

impl SegmentStore {
    /// Validate (or initialise) `root` and recover every topic found in
    /// it. Refuses foreign and incompatible dirs per [`manifest`].
    pub fn open(
        root: impl Into<PathBuf>,
        config: DurabilityConfig,
    ) -> Result<(SegmentStore, Vec<RecoveredTopic>), MqError> {
        let root = root.into();
        manifest::init_or_check(&root)?;
        let recovered = recovery::scan(&root, config)?;
        let m = store_metrics();
        m.recovery_truncated
            .add(recovered.iter().map(|t| t.truncated_bytes).sum());
        m.disk_bytes.set(dir_disk_bytes(&root));
        Ok((SegmentStore { root, config }, recovered))
    }

    /// The data dir this store owns.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configuration partitions are created with.
    pub fn config(&self) -> DurabilityConfig {
        self.config
    }

    /// Create the on-disk partitions of a new topic. All partition
    /// directories are created eagerly so the partition *count* is
    /// itself durable.
    pub fn create_partitions(
        &self,
        topic: &str,
        partitions: u32,
    ) -> Result<Vec<PartitionStore>, MqError> {
        let dir = topic_dir(&self.root, topic);
        (0..partitions.max(1))
            .map(|p| {
                PartitionStore::create(dir.join(format!("@p{p}")), self.config)
                    .map_err(|e| io_err("creating partition", e))
            })
            .collect()
    }

    /// Remove a topic's directory tree (and now-empty parents up to
    /// `topics/`), reclaiming its disk. Returns whether anything
    /// existed. The caller must have dropped the topic's
    /// [`PartitionStore`]s first.
    pub fn delete_topic(&self, topic: &str) -> Result<bool, MqError> {
        let dir = topic_dir(&self.root, topic);
        store_metrics().disk_bytes.sub(dir_disk_bytes(&dir));
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {
                // Prune empty ancestors so `topics/run/<id>/` vanishes
                // once its last topic is deleted.
                let stop = self.root.join("topics");
                let mut parent = dir.parent().map(Path::to_path_buf);
                while let Some(p) = parent {
                    if p == stop || std::fs::remove_dir(&p).is_err() {
                        break;
                    }
                    parent = p.parent().map(Path::to_path_buf);
                }
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err("deleting topic dir", e)),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, self-cleaning temp directory for store tests.
    pub struct TestDir(PathBuf);

    impl TestDir {
        pub fn new(tag: &str) -> TestDir {
            static N: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "ginflow-store-{tag}-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            TestDir(path)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::TestDir;

    #[test]
    fn component_codec_roundtrips_hostile_names() {
        for name in [
            "plain",
            "run",
            "with space",
            "π/∞",
            ".",
            "..",
            "",
            "@p0",
            "a%b",
            "UPPER.low_-",
        ] {
            for component in name.split('/') {
                let enc = encode_component(component);
                assert!(
                    enc.bytes().all(|b| super::byte_is_plain(b) || b == b'%'),
                    "{enc:?} must be a safe file name"
                );
                assert_ne!(enc, ".");
                assert_ne!(enc, "..");
                assert!(!enc.is_empty());
                assert!(!enc.starts_with('@'), "cannot collide with @pN dirs");
                assert_eq!(decode_component(&enc).as_deref(), Some(component));
            }
        }
        assert_eq!(decode_component("%zz"), None);
    }

    #[test]
    fn append_read_rotate() {
        let dir = TestDir::new("partition");
        let config = DurabilityConfig {
            segment_bytes: 256, // force rotation quickly
            fsync: FsyncPolicy::Never,
            ..DurabilityConfig::default()
        };
        let mut p = PartitionStore::create(dir.path().join("@p0"), config).unwrap();
        for i in 0..50u32 {
            p.append(Some(b"k"), format!("payload-{i:04}").as_bytes())
                .unwrap();
        }
        assert_eq!(p.next_offset(), 50);
        assert!(p.sealed_segments() > 1, "256-byte segments must rotate");
        // Reads span sealed segments and the active one.
        let all = p.read(0, 1000).unwrap();
        assert_eq!(all.len(), 50);
        for (i, (offset, key, payload)) in all.iter().enumerate() {
            assert_eq!(*offset, i as u64);
            assert_eq!(key.as_deref(), Some(&b"k"[..]));
            assert_eq!(&payload[..], format!("payload-{i:04}").as_bytes());
        }
        let tail = p.read(47, 10).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].0, 47);
        let paged = p.read(3, 5).unwrap();
        assert_eq!(paged.len(), 5);
        assert_eq!(paged[0].0, 3);
        assert_eq!(paged[4].0, 7);
    }

    #[test]
    fn oversized_record_grows_segment() {
        let dir = TestDir::new("oversized");
        let config = DurabilityConfig {
            segment_bytes: 64,
            fsync: FsyncPolicy::Always,
            ..DurabilityConfig::default()
        };
        let mut p = PartitionStore::create(dir.path().join("@p0"), config).unwrap();
        let big = vec![0xAB; 1000];
        p.append(None, &big).unwrap();
        p.append(None, b"after").unwrap();
        let all = p.read(0, 10).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].2.len(), 1000);
    }

    #[test]
    fn delete_topic_prunes_empty_parents() {
        let dir = TestDir::new("delete");
        let (store, recovered) =
            SegmentStore::open(dir.path(), DurabilityConfig::default()).unwrap();
        assert!(recovered.is_empty());
        let parts = store.create_partitions("run/abc/status", 2).unwrap();
        assert_eq!(parts.len(), 2);
        drop(parts);
        assert!(store.delete_topic("run/abc/status").unwrap());
        assert!(!store.delete_topic("run/abc/status").unwrap());
        assert!(
            !dir.path().join("topics/run").exists(),
            "empty run/<id> ancestors must be pruned"
        );
        assert!(dir.path().join("MANIFEST").exists());
    }
}
