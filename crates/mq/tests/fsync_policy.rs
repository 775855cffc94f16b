//! What each [`FsyncPolicy`] costs on the append path, as a count of
//! `gf_store_fsyncs_total` rather than a publish rate: `Always` syncs
//! once per append, `Never` does not sync at all — and every record is
//! readable after a reopen under both.
//!
//! The counters are process-global, so this is a test binary of its own
//! holding a single test.

use ginflow_mq::{Broker, DurabilityConfig, FsyncPolicy, LogBroker};
use std::path::PathBuf;

const APPENDS: u64 = 300;

struct TestDir(PathBuf);

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn counter(name: &str) -> u64 {
    ginflow_mq::metrics::global()
        .snapshot()
        .iter()
        .find(|row| row.name == name)
        .map_or(0, |row| row.value)
}

/// Append [`APPENDS`] records under `fsync` into segments small enough
/// to rotate, reopen the directory and read every record back; returns
/// the `(fsyncs, rotations)` the appends cost.
fn appends_under(tag: &str, fsync: FsyncPolicy) -> (u64, u64) {
    let dir = TestDir(
        std::env::temp_dir().join(format!("ginflow-fsync-policy-{tag}-{}", std::process::id())),
    );
    let config = DurabilityConfig {
        fsync,
        segment_bytes: 4096,
        ..DurabilityConfig::default()
    };
    let (fsyncs, rotations) = (
        counter("gf_store_fsyncs_total"),
        counter("gf_store_rotations_total"),
    );
    {
        let (broker, _) = LogBroker::open(&dir.0, config).unwrap();
        for i in 0..APPENDS {
            broker
                .publish("t", None, bytes::Bytes::from(format!("record-{i:04}")))
                .unwrap();
        }
    }
    let cost = (
        counter("gf_store_fsyncs_total") - fsyncs,
        counter("gf_store_rotations_total") - rotations,
    );
    let (broker, report) = LogBroker::open(&dir.0, config).unwrap();
    assert_eq!(report.messages, APPENDS, "{tag}: records recovered");
    let got = broker.fetch("t", 0, 0, APPENDS as usize).unwrap();
    assert_eq!(got.len() as u64, APPENDS, "{tag}: records served");
    for (i, m) in got.iter().enumerate() {
        assert_eq!(m.offset, i as u64);
        assert_eq!(m.payload_str(), format!("record-{i:04}"));
    }
    cost
}

#[test]
fn fsyncs_per_append_follow_the_policy() {
    let (fsyncs, rotations) = appends_under("always", FsyncPolicy::Always);
    assert!(rotations > 0, "segments were meant to rotate");
    assert_eq!(fsyncs, APPENDS, "always: one fsync per append");

    let (fsyncs, _) = appends_under("never", FsyncPolicy::Never);
    assert_eq!(fsyncs, 0, "never: no fsync on the append path");
}
