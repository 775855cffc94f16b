//! Daemon-level durability: a server fronting a durable `LogBroker`
//! recovers offsets and its run registry across a restart, and the
//! retention GC's `delete_topic` actually reclaims segment bytes on
//! disk.

use ginflow_mq::store::dir_disk_bytes;
use ginflow_mq::{Broker, DurabilityConfig, FsyncPolicy, LogBroker, SubscribeMode};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ginflow-net-durable-{tag}-{}-{}",
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

fn config() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 4096,
        memory_messages: 16,
    }
}

fn durable_broker(dir: &Path) -> Arc<LogBroker> {
    Arc::new(LogBroker::open(dir, config()).unwrap().0)
}

/// Satellite: a GC'd run's bytes actually leave the disk (`du`-style
/// assertion on the data dir, robust to sparse capacity-sized files).
#[test]
fn retention_gc_reclaims_segment_bytes_on_disk() {
    let dir = TestDir::new("gc");
    let broker = durable_broker(dir.path());
    let server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();

    let payload = bytes::Bytes::from(vec![0xA5u8; 512]);
    for topic in ["run/dead/status", "run/dead/sa.T1", "run/live/status"] {
        for _ in 0..64 {
            client.publish(topic, None, payload.clone()).unwrap();
        }
    }
    broker.flush().unwrap();
    let dead_tree = dir.path().join("topics/run/dead");
    let before_dead = dir_disk_bytes(&dead_tree);
    let before_live = dir_disk_bytes(&dir.path().join("topics/run/live"));
    assert!(before_dead > 0 && before_live > 0);

    client.close_run("dead").unwrap();
    assert_eq!(client.gc_runs().unwrap(), (1, 2));
    assert_eq!(
        dir_disk_bytes(&dead_tree),
        0,
        "run 'dead' must leave no allocated bytes (dir pruned entirely)"
    );
    assert!(!dead_tree.exists(), "run 'dead' subtree must be pruned");
    assert_eq!(
        dir_disk_bytes(&dir.path().join("topics/run/live")),
        before_live,
        "run 'live' untouched"
    );
}

/// The tentpole at the server level: stop a daemon, relaunch a new one
/// over the same data dir, and the new daemon serves the same offsets
/// and lists the old runs in its registry before any client touched it.
#[test]
fn restarted_daemon_resumes_offsets_and_registry() {
    let dir = TestDir::new("restart");
    let addr;
    {
        let broker = durable_broker(dir.path());
        let server = BrokerServer::bind("127.0.0.1:0", broker).unwrap();
        addr = server.local_addr().to_string();
        let client = RemoteBroker::connect(&format!("tcp://{addr}")).unwrap();
        for i in 0..100u32 {
            client
                .publish("run/w1/status", None, bytes::Bytes::from(format!("m{i}")))
                .unwrap();
        }
        client.flush().unwrap();
        server.stop();
    }

    // Same port, new process-worth of state: SO_REUSEADDR means the
    // relaunch binds immediately even with connections in TIME_WAIT.
    let broker = durable_broker(dir.path());
    let server = BrokerServer::bind(&addr, broker).unwrap();
    assert_eq!(server.local_addr().to_string(), addr);

    // Registry rehydrated before any client speaks.
    let runs = server.runs();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].run, "w1");
    assert_eq!(runs[0].topics, 1);
    assert_eq!(runs[0].retained, 100);

    // Offsets resume; history replays from segment files.
    let client = RemoteBroker::connect(&format!("tcp://{addr}")).unwrap();
    let receipt = client
        .publish("run/w1/status", None, bytes::Bytes::from_static(b"m100"))
        .unwrap();
    assert_eq!(receipt.offset, 100, "offsets must continue, not reset");
    let sub = client
        .subscribe("run/w1/status", SubscribeMode::FromOffset(95))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    for i in 95..=100 {
        let m = sub
            .recv_timeout(deadline - Instant::now())
            .unwrap_or_else(|e| panic!("waiting for m{i}: {e}"));
        assert_eq!(m.offset, i);
        assert_eq!(m.payload_str(), format!("m{i}"));
    }
}
