//! A `RemoteBroker` that outlives its runs carries nothing over from one
//! to the next: closing a run releases what the connection held for it,
//! at both ends. Counted on the two subscription gauges — no clock.
//!
//! Alone in this binary: the gauges are process-wide.

use ginflow_core::{patterns, Connectivity, ServiceRegistry};
use ginflow_engine::Engine;
use ginflow_mq::{Broker, LogBroker};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::sync::Arc;

fn gauge(name: &str) -> u64 {
    ginflow_mq::metrics::global()
        .snapshot()
        .iter()
        .find(|row| row.name == name)
        .map_or(0, |row| row.value)
}

/// `(client side, daemon side)`: subscriptions the client holds a
/// delivery bridge for, subscriptions the daemon's sessions hold.
fn subscriptions() -> (u64, u64) {
    (
        gauge("gf_client_subscriptions"),
        gauge("gf_loop_subscriptions"),
    )
}

#[test]
fn a_client_that_outlives_its_runs_holds_nothing_of_a_closed_run() {
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
    let client = Arc::new(RemoteBroker::connect(&server.local_addr().to_string()).unwrap());
    let broker: Arc<dyn Broker> = client.clone();
    let engine = Engine::builder()
        .broker(broker)
        .registry(Arc::new(ServiceRegistry::tracing_for(["s"])))
        .workers(2)
        .build();
    let wf = patterns::diamond(4, 4, Connectivity::Simple, "s").unwrap();
    assert_eq!(wf.dag().len(), 18);

    let idle = subscriptions();
    for run in 0..30 {
        let handle = engine.launch(&wf);
        // The run's inbox and its status topic, at both ends — not one
        // subscription per agent.
        assert_eq!(subscriptions(), (idle.0 + 2, idle.1 + 2), "run {run}");
        let report = handle.join();
        assert!(report.completed, "run {run}");
        assert!(client.close_run(&report.run_id).unwrap(), "run {run}");
        assert_eq!(client.gc_runs().unwrap(), (1, 2), "run {run}");
        assert_eq!(subscriptions(), idle, "after run {run}");
    }
    client.shutdown();
    server.stop();
}
