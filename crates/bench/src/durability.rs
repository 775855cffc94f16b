//! Durability storm: what the file-backed segment store costs per
//! fsync policy. A steady-state in-process publish storm runs against
//! (a) the purely in-memory log — the baseline the CI gate normalises
//! against — and (b) the durable log ([`LogBroker::open`]) under fsync
//! `always` / `interval` (default 50 ms) / `never`. Topic creation
//! (and the segment dir + mmap it implies) happens on a warmup publish
//! before the clock, and the closing flush-to-disk after it: the timed
//! window holds only the per-publish cost the policy governs. Every
//! repetition opens a *fresh* scratch data dir, so no run appends to
//! another's warm segment files; the reported row is the best of
//! `broker_net::REPEAT` repetitions. `bench_broker`
//! emits the sweep as `results/BENCH_durability.csv`.
//!
//! Reading the rows: `always` pays one `msync(MS_SYNC)` per publish
//! (the machine-crash-proof policy), `interval` queues asynchronous
//! writeback when the deadline lapses, and `never` isolates the pure
//! append/memcpy cost — page cache persistence across a killed
//! *process* is free, which is why `interval` is the default and must
//! stay within 2x of memory (the CI floor).

use crate::broker_net::best_of;
use crate::workload::{process_cpu, MetricsProbe, Sample};
use ginflow_mq::{Broker, DurabilityConfig, FsyncPolicy, LogBroker};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The policy sweep: row label → fsync policy, `None` for the
/// in-memory baseline.
pub const MODES: [(&str, Option<FsyncPolicy>); 4] = [
    ("durable_memory", None),
    ("durable_always", Some(FsyncPolicy::Always)),
    (
        "durable_interval",
        Some(FsyncPolicy::Interval(Duration::from_millis(
            FsyncPolicy::DEFAULT_INTERVAL_MS,
        ))),
    ),
    ("durable_never", Some(FsyncPolicy::Never)),
];

/// A scratch data dir removed on drop — fresh per storm repetition.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ginflow-bench-durability-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch data dir");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Steady-state publish storm: a warmup publish creates the topic
/// (and, for the durable log, its segment dir + active mmap) *before*
/// the clock starts, then `msgs` timed publishes measure the pure
/// per-append cost the fsync policy governs. The closing `flush` runs
/// after the wall clock stops — a one-off `msync(MS_SYNC)` at
/// teardown is a durability cost, not a throughput cost — but its
/// success still gates `completed`.
fn durable_storm(mode: &str, msgs: usize, broker: &dyn Broker) -> Sample {
    let payload = bytes::Bytes::from_static(&[0x42; 64]);
    let mut errors = 0usize;
    if broker
        .publish("run/storm/status", None, payload.clone())
        .is_err()
    {
        errors += 1;
    }
    let mut latencies_us = Vec::with_capacity(msgs);
    let probe = MetricsProbe::start();
    let cpu0 = process_cpu();
    let started = Instant::now();
    for _ in 0..msgs {
        let t0 = Instant::now();
        if broker
            .publish("run/storm/status", None, payload.clone())
            .is_err()
        {
            errors += 1;
        }
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let wall = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let flushed = broker.flush().is_ok();
    let mut out = Sample::storm(
        mode,
        msgs,
        wall,
        cpu,
        errors == 0 && flushed,
        &mut latencies_us,
    );
    out.metrics = Some(probe.delta());
    out
}

/// One repetition of one mode on a fresh broker (and, for the durable
/// modes, a fresh scratch data dir — no run appends to another's warm
/// segment files).
fn storm_once(mode: &str, policy: Option<FsyncPolicy>, msgs: usize) -> Sample {
    match policy {
        None => durable_storm(mode, msgs, &LogBroker::new()),
        Some(fsync) => {
            let dir = ScratchDir::new();
            let config = DurabilityConfig {
                fsync,
                ..DurabilityConfig::default()
            };
            let (broker, _report) =
                LogBroker::open(&dir.0, config).expect("open durable broker on scratch dir");
            durable_storm(mode, msgs, &broker)
        }
    }
}

/// The whole sweep at one message count, best-of-repetitions per mode.
pub fn run_with_msgs(msgs: usize) -> Vec<Sample> {
    MODES
        .iter()
        .map(|(mode, policy)| best_of(|| storm_once(mode, *policy, msgs)))
        .collect()
}

// ---------------------------------------------------------------------
// Cold-read fetch latency vs index stride.
// ---------------------------------------------------------------------

/// The index-stride A/B: the historical 64-record stride against the
/// current [`ginflow_mq::store::index::INDEX_EVERY`] default (16). The
/// row pair proves the read-path tuning — seek-to-floor plus a finer
/// index — on a large sealed segment: a cold fetch's forward scan is
/// bounded by the stride, so `read_seek_16` must not be slower than
/// `read_seek_64`.
pub const READ_STRIDES: [(&str, u64); 2] = [("read_seek_64", 64), ("read_seek_16", 16)];

/// Payload size of the read-path storm: 1 KiB makes the per-record
/// scan cost (CRC + decode past the index floor) large enough that
/// stride differences are visible over the seek + read.
const READ_PAYLOAD: usize = 1024;

/// Single-record fetches at pseudo-random offsets of a sealed segment
/// holding `records` 1 KiB records, indexed every `index_every`th
/// record. The timed window holds only the fetches; segment fill and
/// seal happen before the clock.
fn read_storm_once(mode: &str, index_every: u64, records: usize, fetches: usize) -> Sample {
    use ginflow_mq::store::{segment::record_frame_len, SegmentStore};
    let dir = ScratchDir::new();
    let payload = [0x42u8; READ_PAYLOAD];
    // Capacity for exactly `records` frames: the next append rotates,
    // sealing the segment the fetches then hit.
    let config = DurabilityConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: records * record_frame_len(None, READ_PAYLOAD),
        index_every,
        ..DurabilityConfig::default()
    };
    let (store, _) = SegmentStore::open(&dir.0, config).expect("open scratch store");
    let mut parts = store
        .create_partitions("bench/read", 1)
        .expect("create read-path partition");
    let p = &mut parts[0];
    for _ in 0..=records {
        p.append(None, &payload).expect("fill segment");
    }
    assert_eq!(p.sealed_segments(), 1, "fill must seal exactly one segment");

    let mut errors = 0usize;
    let mut latencies_us = Vec::with_capacity(fetches);
    // Deterministic LCG (Knuth's MMIX constants): same offset sequence
    // for both strides, so the rows differ only by index granularity.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let cpu0 = process_cpu();
    let started = Instant::now();
    for _ in 0..fetches {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let offset = (state >> 33) % records as u64;
        let t0 = Instant::now();
        match p.read(offset, 1) {
            Ok(batch) if batch.first().is_some_and(|r| r.0 == offset) => {}
            _ => errors += 1,
        }
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let wall = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    Sample::storm(mode, fetches, wall, cpu, errors == 0, &mut latencies_us)
}

/// The stride A/B at one segment size, best-of-repetitions per stride.
pub fn run_read_path(records: usize, fetches: usize) -> Vec<Sample> {
    READ_STRIDES
        .iter()
        .map(|(mode, every)| best_of(|| read_storm_once(mode, *every, records, fetches)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_completes_every_policy_and_reports_throughput() {
        let samples = run_with_msgs(200);
        assert_eq!(samples.len(), MODES.len());
        for (s, (mode, _)) in samples.iter().zip(MODES) {
            assert_eq!(s.mode, mode);
            assert!(s.completed, "{mode} failed");
            assert_eq!(s.tasks, 200);
            assert!(s.msgs_per_sec.unwrap() > 0.0, "{mode} reported no rate");
        }
    }

    #[test]
    fn read_path_sweep_fetches_correct_records_under_both_strides() {
        let samples = run_read_path(256, 64);
        assert_eq!(samples.len(), READ_STRIDES.len());
        for (s, (mode, _)) in samples.iter().zip(READ_STRIDES) {
            assert_eq!(s.mode, mode);
            assert!(s.completed, "{mode}: a fetch returned the wrong record");
            assert_eq!(s.tasks, 64);
            assert!(s.p50_us.is_some(), "{mode} reported no latency");
        }
    }

    #[test]
    fn scratch_dirs_do_not_leak() {
        let before = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("ginflow-bench-durability-")
            })
            .count();
        storm_once("durable_never", Some(FsyncPolicy::Never), 10);
        let after = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("ginflow-bench-durability-")
            })
            .count();
        assert_eq!(before, after, "scratch data dir leaked");
    }
}
