//! The broker daemon: accepts TCP connections and fronts any in-process
//! [`Broker`] (the log by default) over the wire protocol.
//!
//! [`BrokerServer`] runs one thread and one epoll instance. The `daemon`
//! module's `DaemonCore` makes every protocol decision — verb dispatch,
//! receipt runs, drains and parking, retention — as one plain value
//! driven without sockets; the `event_loop` module does the I/O around
//! it. Thread count is independent of client count, and an idle daemon
//! makes zero syscalls between deadlines.
//!
//! The daemon is **multi-run**: topics are run-scoped
//! (`run/<id>/…`, see [`ginflow_mq::namespace`]), and the server keeps a
//! registry of the runs it has seen, whose topics are the broker's
//! topics in each run's namespace. Clients
//! list the runs (`RUN_LIST`), mark a run completed (`RUN_CLOSE`) and
//! reclaim completed runs' topics (`RUN_GC`); with a retention window
//! ([`BrokerServer::bind_with_retention`]) the daemon reclaims them
//! automatically, so a standing daemon serving many runs does not grow
//! without bound.

use crate::event_loop::LoopHandle;
use crate::metrics_http::MetricsExporter;
use crate::registry::RunRegistry;
use crate::transport::Transport;
use ginflow_mq::wire::{RunStat, StatRow};
use ginflow_mq::Broker;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One flat snapshot of the process-global metrics registry with the
/// per-run gauges (`gf_run_topics`, `gf_run_retained`)
/// refreshed from `registry` first — the payload of a STATS reply, and
/// the same rows `/metrics` renders in Prometheus form.
pub(crate) fn stats_snapshot(registry: &RunRegistry) -> Vec<StatRow> {
    registry.fold_into_metrics();
    ginflow_mq::metrics::global().snapshot()
}

/// A running broker daemon. Dropping the server (or calling
/// [`BrokerServer::stop`]) closes every connection and joins every
/// server thread.
pub struct BrokerServer {
    addr: SocketAddr,
    /// The event loop's cross-thread doorbell.
    event_loop: Arc<LoopHandle>,
    loop_thread: Mutex<Option<JoinHandle<()>>>,
    registry: Arc<RunRegistry>,
    metrics_http: Mutex<Option<MetricsExporter>>,
}

impl BrokerServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7433"`, port 0 for ephemeral) and
    /// start serving `broker` in the background. Runs are reclaimed
    /// only on explicit `RUN_GC` requests; see
    /// [`BrokerServer::bind_with_retention`] for automatic retention.
    pub fn bind(addr: &str, broker: Arc<dyn Broker>) -> std::io::Result<BrokerServer> {
        BrokerServer::bind_with_retention(addr, broker, None)
    }

    /// [`BrokerServer::bind`] with a retention window: completed runs'
    /// topics are dropped `retention` after the run was marked
    /// completed (`RUN_CLOSE`), so a standing daemon serving many
    /// back-to-back runs reclaims their logs without operator action.
    pub fn bind_with_retention(
        addr: &str,
        broker: Arc<dyn Broker>,
        retention: Option<Duration>,
    ) -> std::io::Result<BrokerServer> {
        let registry = Arc::new(RunRegistry::new(broker.clone()));
        // Rehydrate the registry from whatever the broker already
        // knows: a durable broker recovered off disk reports its
        // topics through `topic_names`, so runs that predate this
        // process show up in `RUN_LIST` and age out through the same
        // retention GC as live ones.
        for topic in broker.topic_names() {
            registry.observe(&topic);
        }
        let (addr, event_loop, loop_thread) =
            crate::event_loop::spawn(addr, broker, registry.clone(), retention)?;
        Ok(BrokerServer {
            addr,
            event_loop,
            loop_thread: Mutex::new(Some(loop_thread)),
            registry,
            metrics_http: Mutex::new(None),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the run registry (what `RUN_LIST` answers).
    pub fn runs(&self) -> Vec<RunStat> {
        self.registry.list()
    }

    /// Flat snapshot of the process-global metrics registry, per-run
    /// gauges refreshed — what a `STATS` request answers, available
    /// in-process for embedding servers and benchmarks.
    pub fn stats(&self) -> Vec<StatRow> {
        stats_snapshot(&self.registry)
    }

    /// Start the embedded Prometheus endpoint on `addr` (port 0 for
    /// ephemeral): `GET /metrics` serves the process-global registry in
    /// the text exposition format, per-run gauges refreshed per scrape.
    /// Returns the bound address. The endpoint stops with the server.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let registry = self.registry.clone();
        let exporter = MetricsExporter::bind(addr, move || {
            registry.fold_into_metrics();
            ginflow_mq::metrics::global().render_prometheus()
        })?;
        let bound = exporter.local_addr();
        *self.metrics_http.lock() = Some(exporter);
        Ok(bound)
    }

    /// Open an in-process connection to this daemon: a socketpair half
    /// served exactly like an accepted socket, no listener involved.
    /// Pair with [`RemoteBroker::connect_with`] to run the full client
    /// against the daemon without TCP — the in-process test seam the
    /// [`Transport`] abstraction exists for.
    ///
    /// [`RemoteBroker::connect_with`]: crate::RemoteBroker::connect_with
    pub fn connect_in_process(&self) -> std::io::Result<Box<dyn Transport>> {
        self.event_loop.connect_in_process()
    }

    /// Sever every live connection while keeping the listener up — the
    /// fault-injection hook reconnect logic and tests are built on (the
    /// network equivalent of the paper's killed JVM).
    pub fn drop_connections(&self) {
        self.event_loop.drop_connections();
    }

    /// Stop accepting, close every live connection, join every server
    /// thread (the metrics endpoint included). Idempotent.
    pub fn stop(&self) {
        self.metrics_http.lock().take();
        self.event_loop.request_shutdown();
        if let Some(t) = self.loop_thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.stop();
    }
}
