//! A `RemoteBroker` that outlives its runs carries nothing over from one
//! to the next: closing a run releases what the connection held for it,
//! at both ends. Counted on the two subscription gauges — no clock. An
//! unsharded run, the only writer of its topics, holds no subscription
//! at all; a shard holds two.
//!
//! Alone in this binary: the gauges are process-wide.

use ginflow_core::{patterns, Connectivity, ServiceRegistry};
use ginflow_engine::{Backend, Engine, RunId};
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
    let engine = |shard: Option<u32>| {
        let builder = Engine::builder()
            .broker(broker.clone())
            .registry(Arc::new(ServiceRegistry::tracing_for(["s"])))
            .workers(2);
        match shard {
            Some(run) => builder
                .backend(Backend::Sharded { shard: 0, of: 1 })
                .run_id(RunId::new(format!("shard-{run}")).unwrap()),
            None => builder,
        }
        .build()
    };
    let unsharded = engine(None);
    let wf = patterns::diamond(4, 4, Connectivity::Simple, "s").unwrap();
    assert_eq!(wf.dag().len(), 18);

    let idle = subscriptions();
    for run in 0..60 {
        let shard = run % 2 == 1;
        let handle = match shard {
            true => engine(Some(run)).launch(&wf),
            false => unsharded.launch(&wf),
        };
        // A shard reads the run's inbox and its status topic, at both
        // ends — not one subscription per agent; an unsharded run
        // neither.
        let held = if shard { 2 } else { 0 };
        assert_eq!(subscriptions(), (idle.0 + held, idle.1 + held), "run {run}");
        let report = handle.join();
        assert!(report.completed, "run {run}");
        assert!(client.close_run(&report.run_id).unwrap(), "run {run}");
        assert_eq!(client.gc_runs().unwrap(), (1, 2), "run {run}");
        assert_eq!(subscriptions(), idle, "after run {run}");
    }
    client.shutdown();
    server.stop();
}
