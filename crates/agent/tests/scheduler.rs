//! Integration tests of the event-driven worker-pool scheduler: the
//! complete decentralised protocol on a bounded pool — normal runs at
//! scale, adaptation, and crash/recovery with inbox replay (mirrors
//! `tests/runtime.rs` with workers ≪ agents).

use ginflow_agent::{RunOptions, Scheduler};
use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
use ginflow_core::{patterns, FailingService, ServiceRegistry, TaskState, Value, Workflow};
use ginflow_mq::{
    Broker, BrokerKind, LogBroker, Message, MqError, Receipt, SubscribeMode, Subscription,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

/// A small bounded pool: every test runs with workers ≪ agents.
fn pool_options() -> RunOptions {
    RunOptions {
        workers: 2,
        ..RunOptions::default()
    }
}

fn fig2() -> Workflow {
    let mut b = WorkflowBuilder::new("fig2");
    b.task("T1", "s1").input(Value::str("input"));
    b.task("T2", "s2").after(["T1"]);
    b.task("T3", "s3").after(["T1"]);
    b.task("T4", "s4").after(["T2", "T3"]);
    b.build().unwrap()
}

fn fig5() -> Workflow {
    let mut b = WorkflowBuilder::new("fig5");
    b.task("T1", "s1").input(Value::str("input"));
    b.task("T2", "s2").after(["T1"]);
    b.task("T3", "s3").after(["T1"]);
    b.task("T4", "s4").after(["T2", "T3"]);
    b.adaptation(
        "replace-T2",
        ["T2"],
        ["T2"],
        [ReplacementTask::new("T2'", "s2p", ["T1"])],
    );
    b.build().unwrap()
}

fn tracing_registry() -> Arc<ServiceRegistry> {
    Arc::new(ServiceRegistry::tracing_for([
        "s1", "s2", "s3", "s4", "s2p", "s",
    ]))
}

#[test]
fn thousand_task_fan_completes_on_a_bounded_pool() {
    // The scaling acceptance bar: 1000+ agents, 2 workers, no polling.
    let scheduler = Scheduler::new(BrokerKind::Transient.build(), tracing_registry())
        .with_options(pool_options());
    let run = scheduler.launch(&patterns::parallel(1000, "s").unwrap());
    let results = run
        .wait(Duration::from_secs(120))
        .expect("1000-task fan completes");
    assert!(results.contains_key("join"));
    assert_eq!(run.state_of("p1000"), Some(TaskState::Completed));
    run.shutdown();
}

#[test]
fn adaptation_reroutes_on_the_pool() {
    // §III-C end-to-end on the worker pool: T2's service always fails;
    // T2' takes over transparently.
    let mut registry = ServiceRegistry::tracing_for(["s1", "s3", "s4", "s2p"]);
    registry.register("s2", Arc::new(FailingService));
    let scheduler = Scheduler::new(BrokerKind::Transient.build(), Arc::new(registry))
        .with_options(pool_options());
    let run = scheduler.launch(&fig5());
    let results = run.wait(WAIT).expect("adaptation must complete the run");
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2p(s1(input)),s3(s1(input)))".into())
    );
    assert_eq!(run.state_of("T2"), Some(TaskState::Failed));
    assert_eq!(run.state_of("T2'"), Some(TaskState::Completed));
    run.shutdown();
}

#[test]
fn killed_agent_mid_workflow_replays_and_completes() {
    // §IV-B on the pool: crash T2 before it can run; the respawned
    // incarnation re-enters through the ready-queue and replays its
    // persistent inbox from the beginning.
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker, tracing_registry()).with_options(pool_options());
    let run = scheduler.launch(&fig2());

    assert!(run.kill("T2"));
    // The kill wakes the slot; the crash lands within a scheduling turn.
    std::thread::sleep(Duration::from_millis(100));
    assert!(!run.alive("T2"));

    assert!(run.respawn("T2"));
    assert_eq!(run.incarnation("T2"), 1);
    let results = run.wait(WAIT).expect("recovered workflow completes");
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
    );
    run.shutdown();
}

#[test]
fn auto_recovery_on_the_pool_restarts_dead_agents() {
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker, tracing_registry()).with_options(RunOptions {
        auto_recover: true,
        ..pool_options()
    });
    let run = scheduler.launch(&fig2());
    assert!(run.kill("T3"));
    let results = run.wait(WAIT).expect("auto recovery completes the run");
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
    );
    // The respawn is asynchronous (reaper → recovery thread) and the
    // run may complete first when the kill lands after T3 already
    // finished its work — poll briefly instead of racing the recovery
    // thread.
    let deadline = std::time::Instant::now() + WAIT;
    while run.incarnation("T3") == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(run.incarnation("T3") >= 1, "T3 was respawned");
    run.shutdown();
}

/// A tracing service that takes a while — lets tests land a kill while
/// the producer is still computing, deterministically.
struct SlowTrace(ginflow_core::TraceService, Duration);

impl ginflow_core::Service for SlowTrace {
    fn invoke(&self, params: &[Value]) -> Result<Value, ginflow_core::ServiceError> {
        std::thread::sleep(self.1);
        self.0.invoke(params)
    }
}

#[test]
fn pool_recovery_without_persistence_cannot_replay() {
    // On the transient broker a respawned agent has no history: T2 never
    // learns about T1's result, so the workflow hangs. s1 is slowed so
    // the kill always lands before T1's result is even sent.
    let mut registry = ServiceRegistry::tracing_for(["s2", "s3", "s4"]);
    registry.register(
        "s1",
        Arc::new(SlowTrace(
            ginflow_core::TraceService::new("s1"),
            Duration::from_millis(300),
        )),
    );
    let scheduler = Scheduler::new(BrokerKind::Transient.build(), Arc::new(registry))
        .with_options(pool_options());
    let run = scheduler.launch(&fig2());
    run.kill("T2");
    std::thread::sleep(Duration::from_millis(500));
    run.respawn("T2");
    let err = run.wait(Duration::from_secs(1));
    assert!(err.is_err(), "transient broker cannot support recovery");
    run.shutdown();
}

#[test]
fn repeated_crashes_on_the_pool_eventually_complete() {
    // "a restarted agent can fail again" — crash T2 a few times in a row.
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker, tracing_registry()).with_options(pool_options());
    let run = scheduler.launch(&fig2());
    for _ in 0..3 {
        run.kill("T2");
        std::thread::sleep(Duration::from_millis(30));
        run.respawn("T2");
        std::thread::sleep(Duration::from_millis(30));
    }
    let results = run.wait(WAIT).expect("completes after repeated crashes");
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
    );
    run.shutdown();
}

/// A log broker on which the first few requests of a kind fail the way
/// a remote request does when its connection drops under it:
/// `Disconnected`, nothing done. The kinds are the ones a run cannot do
/// without: empty-payload publishes (the shutdown sentinel), and the
/// subscribes of `launch`, single and bulk.
#[derive(Default)]
struct DisconnectingBroker {
    log: LogBroker,
    sentinel_drops_left: AtomicUsize,
    subscribe_drops_left: AtomicUsize,
    bulk_subscribe_drops_left: AtomicUsize,
}

/// Use up one of `drops_left`; `Err(Disconnected)` while any were left.
fn drop_one(drops_left: &AtomicUsize) -> Result<(), MqError> {
    match drops_left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
        Ok(_) => Err(MqError::Disconnected),
        Err(_) => Ok(()),
    }
}

impl Broker for DisconnectingBroker {
    fn publish(
        &self,
        topic: &str,
        key: Option<bytes::Bytes>,
        payload: bytes::Bytes,
    ) -> Result<Receipt, MqError> {
        if payload.is_empty() {
            drop_one(&self.sentinel_drops_left)?;
        }
        self.log.publish(topic, key, payload)
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        drop_one(&self.subscribe_drops_left)?;
        self.log.subscribe(topic, mode)
    }

    fn subscribe_many(
        &self,
        requests: &[(String, SubscribeMode)],
    ) -> Result<Vec<Subscription>, MqError> {
        drop_one(&self.bulk_subscribe_drops_left)?;
        self.log.subscribe_many(requests)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        self.log.fetch(topic, partition, from_offset, max)
    }

    fn persistent(&self) -> bool {
        self.log.persistent()
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.log.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.log.retained(topic)
    }
}

#[test]
fn teardown_survives_losing_the_shutdown_sentinel() {
    // Teardown joins the status collector, which only wakes on a
    // delivery: a sentinel publish lost to a connection drop must be
    // retried, or `shutdown` never returns.
    let broker = Arc::new(DisconnectingBroker {
        sentinel_drops_left: AtomicUsize::new(3),
        ..DisconnectingBroker::default()
    });
    let scheduler = Scheduler::new(broker.clone(), tracing_registry()).with_options(pool_options());
    let run = scheduler.launch(&fig2());
    run.wait(WAIT).expect("fig2 completes");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        run.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung behind a lost sentinel");
    assert_eq!(broker.sentinel_drops_left.load(Ordering::SeqCst), 0);
}

#[test]
fn launch_survives_losing_its_subscribes() {
    // A subscribe cut off by a connection drop left nothing behind on
    // the server, so `launch` retries it instead of panicking on the
    // first sever that lands inside it.
    let broker = Arc::new(DisconnectingBroker {
        subscribe_drops_left: AtomicUsize::new(2),
        bulk_subscribe_drops_left: AtomicUsize::new(2),
        ..DisconnectingBroker::default()
    });
    let scheduler = Scheduler::new(broker.clone(), tracing_registry()).with_options(pool_options());
    let run = scheduler.launch(&fig2());
    let results = run.wait(WAIT).expect("fig2 completes");
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
    );
    run.shutdown();
    assert_eq!(broker.subscribe_drops_left.load(Ordering::SeqCst), 0);
    assert_eq!(broker.bulk_subscribe_drops_left.load(Ordering::SeqCst), 0);
}

#[test]
fn shard_placement_is_pinned() {
    // Shard processes built from different commits must agree on who
    // hosts which agent: the placement of known names never moves.
    use ginflow_agent::scheduler::process_shard;
    for (name, of_2, of_3, of_16) in [
        ("T1", 0, 2, 6),
        ("T2", 1, 0, 3),
        ("T3", 0, 1, 0),
        ("T4", 1, 0, 5),
        ("source", 0, 2, 8),
        ("sink", 0, 1, 2),
        ("m_3_7", 0, 0, 0),
        ("agent-with-a-long-name", 0, 2, 8),
    ] {
        let placed = [2, 3, 16].map(|count| process_shard(name, count));
        assert_eq!(placed, [of_2, of_3, of_16], "{name}");
    }
    assert_eq!(process_shard("T2", 0), 0, "a count of 0 is one shard");
}
