//! Property tests of the segment store's crash-safety contract:
//! arbitrary records survive an encode→decode round trip, a torn tail
//! of arbitrary garbage is truncated (never served, never fatal), and
//! a data dir stamped with any other schema version is refused.

use ginflow_mq::store::manifest::SCHEMA_VERSION;
use ginflow_mq::store::segment::{decode_record, encode_record, record_frame_len, Decoded};
use ginflow_mq::store::SegmentStore;
use ginflow_mq::{Broker, DurabilityConfig, FsyncPolicy, LogBroker, SubscribeMode};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, self-cleaning temp directory (no tempfile dependency).
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ginflow-store-it-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TestDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_segments() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 512, // rotate often so properties cross segments
        memory_messages: 4,
    }
}

fn arb_key() -> BoxedStrategy<Option<Vec<u8>>> {
    (any::<bool>(), prop::collection::vec(any::<u8>(), 0..32))
        .prop_map(|(present, k)| present.then_some(k))
        .boxed()
}

fn arb_payload() -> BoxedStrategy<Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..128).boxed()
}

proptest! {
    /// decode(encode(key, payload)) returns the same key and payload
    /// (including the no-key vs. empty-key distinction) and reports the
    /// exact frame length, and any single corrupted byte of the frame
    /// never decodes to a *different* valid record.
    #[test]
    fn record_roundtrip(key in arb_key(), payload in arb_payload(), flip in any::<u16>()) {
        let mut buf = Vec::new();
        encode_record(&mut buf, key.as_deref(), &payload);
        prop_assert_eq!(
            buf.len(),
            record_frame_len(key.as_ref().map(Vec::len), payload.len())
        );
        match decode_record(&buf) {
            Decoded::Record { key: k, payload: p, frame } => {
                prop_assert_eq!(k, key.as_deref());
                prop_assert_eq!(p, &payload[..]);
                prop_assert_eq!(frame, buf.len());
            }
            other => prop_assert!(false, "valid record decoded as {:?}", other),
        }

        let mut corrupt = buf.clone();
        let at = flip as usize % corrupt.len();
        corrupt[at] ^= 1 + (flip >> 8) as u8 % 255;
        match decode_record(&corrupt) {
            // Flipping a length byte may leave a decodable-looking
            // prefix only if the CRC still matches — astronomically
            // unlikely; equality below catches any slip.
            Decoded::Record { key: k, payload: p, .. } => {
                prop_assert_eq!(k, key.as_deref());
                prop_assert_eq!(p, &payload[..]);
            }
            Decoded::Torn | Decoded::End => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever partial garbage a crash leaves after the last complete
    /// record, reopening the dir truncates it: every acknowledged
    /// message survives with its offset, nothing fabricated appears,
    /// and the partition accepts appends at the right next offset.
    #[test]
    fn torn_tail_is_always_truncated(
        payloads in prop::collection::vec(arb_payload(), 1..24),
        garbage in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let dir = TestDir::new("torn");
        {
            let (broker, _) = LogBroker::open(dir.path(), small_segments()).unwrap();
            for p in &payloads {
                broker
                    .publish("t", None, bytes::Bytes::copy_from_slice(p))
                    .unwrap();
            }
        }
        // Find the active (largest-base) segment and smear garbage at
        // its valid end — the shape a mid-append crash leaves.
        let pdir = dir.path().join("topics/t/@p0");
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&pdir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segs.sort();
        let last = segs.pop().unwrap();
        let base: u64 = last
            .file_stem()
            .unwrap()
            .to_str()
            .unwrap()
            .parse()
            .unwrap();
        let valid_end: usize = payloads
            .iter()
            .skip(base as usize)
            .map(|p| record_frame_len(None, p.len()))
            .sum();
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
            f.seek(SeekFrom::Start(valid_end as u64)).unwrap();
            f.write_all(&garbage).unwrap();
        }

        let (broker, report) = LogBroker::open(dir.path(), small_segments()).unwrap();
        // All-zero garbage is a clean end, anything else a counted tear.
        prop_assert!(garbage.iter().all(|&b| b == 0) || report.truncated_bytes > 0);
        prop_assert_eq!(report.messages, payloads.len() as u64);
        let sub = broker.subscribe("t", SubscribeMode::Beginning).unwrap();
        for (i, expected) in payloads.iter().enumerate() {
            let m = sub.try_recv().unwrap().expect("replayed message");
            prop_assert_eq!(m.offset, i as u64);
            prop_assert_eq!(&m.payload[..], &expected[..]);
        }
        prop_assert!(sub.try_recv().unwrap().is_none(), "nothing fabricated");
        let receipt = broker
            .publish("t", None, bytes::Bytes::from_static(b"after"))
            .unwrap();
        prop_assert_eq!(receipt.offset, payloads.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A manifest stamped with any schema version but ours is refused
    /// with an error naming both versions — never silently migrated or
    /// re-initialised.
    #[test]
    fn version_bumped_manifest_is_refused(bump in 1u32..=u32::MAX - SCHEMA_VERSION) {
        let other = SCHEMA_VERSION + bump;
        let dir = TestDir::new("schema");
        std::fs::write(
            dir.path().join("MANIFEST"),
            format!("ginflow segment store\nschema {other}\n"),
        )
        .unwrap();
        let err = SegmentStore::open(dir.path(), DurabilityConfig::default())
            .err()
            .expect("incompatible schema must be refused");
        let text = err.to_string();
        prop_assert!(text.contains("incompatible"), "{}", text);
        prop_assert!(text.contains(&other.to_string()), "{}", text);
        prop_assert!(
            dir.path().join("MANIFEST").exists(),
            "refusal must not touch the dir"
        );
    }
}

/// Rotation + eviction under the broker API: every offset readable
/// across many sealed segments after reopen (deterministic companion to
/// the properties above).
#[test]
fn reopen_after_heavy_rotation_serves_every_offset() {
    let dir = TestDir::new("rotation");
    let total = 500u64;
    {
        let (broker, _) = LogBroker::open(dir.path(), small_segments()).unwrap();
        for i in 0..total {
            broker
                .publish("t", None, bytes::Bytes::from(format!("payload-{i:05}")))
                .unwrap();
        }
        broker.flush().unwrap();
    }
    let (broker, report) = LogBroker::open(dir.path(), small_segments()).unwrap();
    assert_eq!(report.messages, total);
    for from in [0u64, 1, 63, 64, 65, 250, total - 1] {
        let got = broker.fetch("t", 0, from, 7).unwrap();
        assert_eq!(got[0].offset, from);
        assert_eq!(got[0].payload_str(), format!("payload-{from:05}"));
        assert_eq!(got.len(), 7.min((total - from) as usize));
    }
}
