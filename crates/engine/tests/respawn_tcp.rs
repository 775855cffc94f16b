//! The lock rule of the run's one keyed inbox, over TCP. A shard's
//! inbox is demultiplexed on the client reactor, the same thread that
//! answers every broker request of the process, and the demux takes the
//! scheduler's agent table for each message. A request made while
//! holding that table would stall the reactor behind the demux until the
//! request timed out (30 s). Neither a respawn nor the demux makes one:
//! a respawned or rehydrated agent is refilled from the log — its past
//! fetched — on its first turn, from a worker. An unsharded run delivers
//! its own records and demultiplexes nothing on the reactor; its refill
//! waits there for the receipts of what the run shipped, then fetches.
//! Counted, not timed: every respawn succeeds while keyed traffic floods
//! the reactor, and each run completes within its deadline.

use ginflow_core::workflow::ReplacementTask;
use ginflow_core::{
    FailingService, Service, ServiceError, ServiceRegistry, TraceService, Value, WorkflowBuilder,
};
use ginflow_engine::{Backend, Engine, RunId, TopicNamespace};
use ginflow_mq::{Broker, LogBroker};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A service that parks until the test opens the gate, then traces.
struct Gated(TraceService, Mutex<Receiver<()>>);

impl Service for Gated {
    fn invoke(&self, params: &[Value]) -> Result<Value, ServiceError> {
        let _ = self.1.lock().unwrap().recv();
        self.0.invoke(params)
    }
}

#[test]
fn respawns_with_inbox_traffic_in_flight_never_stall_the_reactor() {
    // Each respawn's refill waits for its receipts and is fetched from a
    // worker while the reactor carries the flood.
    respawn_under_a_flood(Arc::new(LogBroker::new()), Backend::Scheduler);
}

#[test]
fn a_shards_respawns_with_inbox_traffic_in_flight_never_stall_the_reactor() {
    // Each respawn's refill is fetched from a worker while the reactor
    // demultiplexes the flood.
    respawn_under_a_flood(
        Arc::new(LogBroker::new()),
        Backend::Sharded { shard: 0, of: 1 },
    );
}

/// Kill and respawn the join of a gated fan again and again while a
/// second connection floods an inbox with keyed noise, then let the fan
/// finish. A shard's own inbox is flooded, so its reactor demultiplexes
/// the noise; an unsharded run is its inbox's only writer, so a
/// neighbour run's is, and the reactor carries the noise past it.
fn respawn_under_a_flood(daemon: Arc<dyn Broker>, backend: Backend) {
    const WIDTH: usize = 50;
    const RESPAWNS: u32 = 20;
    let server = BrokerServer::bind("127.0.0.1:0", daemon).unwrap();
    let addr = server.local_addr().to_string();

    let (gate, opened) = channel();
    let mut registry = ServiceRegistry::tracing_for(["s"]);
    registry.register(
        "gate",
        Arc::new(Gated(TraceService::new("gate"), Mutex::new(opened))),
    );
    // `source` and `join` hash to different workers of the two, so the
    // parked source holds up none of join's turns.
    let mut b = WorkflowBuilder::new("gated-fan");
    b.task("source", "gate").input(Value::str("x"));
    let branches: Vec<String> = (0..WIDTH).map(|i| format!("p{i}")).collect();
    for p in &branches {
        b.task(p, "s").after(["source"]);
    }
    b.task("join", "s").after(branches.clone());
    let wf = b.build().unwrap();

    let run = Engine::builder()
        .broker(Arc::new(RemoteBroker::connect(&addr).unwrap()) as Arc<dyn Broker>)
        .registry(Arc::new(registry))
        .workers(2)
        .run_id(RunId::new("respawn-tcp").unwrap())
        .backend(backend.clone())
        .build()
        .launch(&wf);
    // Declared after the run, so a failing assertion drops the gate
    // first and teardown does not wait on the parked service.
    let gate = gate;

    // A second connection floods an inbox with keyed messages no agent
    // decodes, so the reactor is at work through every respawn.
    let stop = Arc::new(AtomicBool::new(false));
    let flooded = Arc::new(AtomicUsize::new(0));
    let flooder = {
        let (stop, flooded) = (stop.clone(), flooded.clone());
        let client = RemoteBroker::connect(&addr).unwrap();
        std::thread::spawn(move || {
            let flooded_run = match backend {
                Backend::Sharded { .. } => "respawn-tcp",
                _ => "respawn-tcp-neighbour",
            };
            let inbox = TopicNamespace::new(RunId::new(flooded_run).unwrap())
                .inbox()
                .to_owned();
            let keys = ["join", "p0", "nobody"];
            while !stop.load(Ordering::SeqCst) {
                let n = flooded.fetch_add(1, Ordering::SeqCst);
                client
                    .publish(&inbox, Some(keys[n % keys.len()].into()), "noise".into())
                    .unwrap();
            }
            client.shutdown();
        })
    };
    while flooded.load(Ordering::SeqCst) < 100 {
        std::thread::yield_now();
    }

    for i in 1..=RESPAWNS {
        assert!(run.kill("join"), "kill {i}");
        assert!(run.respawn("join"), "respawn {i}");
        assert_eq!(run.incarnation("join"), i);
        // Time for the newcomer's first turn — its refill — to run
        // under the flood; nothing asserted depends on whether it did.
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);
    flooder.join().unwrap();

    gate.send(()).unwrap();
    let results = run
        .wait(Duration::from_secs(20))
        .expect("the fan completes");
    let expected = format!("s({})", vec!["s(gate(x))"; WIDTH].join(","));
    assert_eq!(results["join"], Value::Str(expected));
    let report = run.join();
    assert_eq!(report.tasks["join"].incarnation, RESPAWNS);
    server.stop();
}

#[test]
fn a_rehydration_over_tcp_reads_its_past_from_a_worker() {
    // On a log daemon, one worker: T1 is evicted once its turn ends,
    // before T2 fails, so the ADAPT asking T1 to resend reaches a
    // tombstone. The reactor that demultiplexes it builds the rehydrated
    // agent; the fetch of T0's result back from the log, which that same
    // reactor must answer, is made on the agent's first worker turn.
    // Made in the demux, it would stall until the request timed out and
    // the run would miss its deadline.
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
    let mut registry = ServiceRegistry::tracing_for(["s0", "s1", "s3", "s4", "s2p"]);
    registry.register("s2", Arc::new(FailingService));
    let mut b = WorkflowBuilder::new("fig5");
    b.task("T0", "s0").input(Value::str("input"));
    b.task("T1", "s1").after(["T0"]);
    b.task("T2", "s2").after(["T1"]);
    b.task("T3", "s3").after(["T1"]);
    b.task("T4", "s4").after(["T2", "T3"]);
    b.adaptation(
        "replace-T2",
        ["T2"],
        ["T2"],
        [ReplacementTask::new("T2'", "s2p", ["T1"])],
    );
    let report = Engine::builder()
        .broker(
            Arc::new(RemoteBroker::connect(&server.local_addr().to_string()).unwrap())
                as Arc<dyn Broker>,
        )
        .registry(Arc::new(registry))
        .workers(1)
        .deadline(Duration::from_secs(20))
        .build()
        .launch(&b.build().unwrap())
        .join();
    assert!(report.completed, "{report:?}");
    assert_eq!(
        report.result_of("T4"),
        Some(&Value::Str(
            "s4(s2p(s1(s0(input))),s3(s1(s0(input))))".into()
        ))
    );
    assert_eq!(report.rehydrations, 1);
    server.stop();
}
