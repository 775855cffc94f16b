//! Integration tests of the event-driven worker-pool scheduler: the
//! complete decentralised protocol on a bounded pool — normal runs at
//! scale, adaptation, and crash/recovery with inbox replay (mirrors
//! `tests/runtime.rs` with workers ≪ agents).

use ginflow_agent::{RunEvent, RunFailure, RunOptions, Scheduler, WaitError};
use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
use ginflow_core::{patterns, FailingService, ServiceRegistry, TaskState, Value, Workflow};
use ginflow_mq::{
    Broker, BrokerKind, LogBroker, Message, MqError, Receipt, SubscribeMode, Subscription,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
    // The respawn is asynchronous (the worker that observes the kill
    // performs it) and the run may complete first when the kill lands
    // after T3 already finished its work — poll briefly instead of
    // racing that worker.
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

/// A log broker on which requests fail the way a remote request does
/// when its connection drops under it: `Disconnected`, nothing done.
/// The first few subscribes of `launch`, single and bulk — the requests
/// a run cannot do without — and, once `refuse_publishes` is set, every
/// publish. Publish attempts are counted; every flavour of publish
/// reaches `publish` through the trait's defaults.
#[derive(Default)]
struct DisconnectingBroker {
    log: LogBroker,
    publishes: AtomicUsize,
    refuse_publishes: AtomicBool,
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
        self.publishes.fetch_add(1, Ordering::SeqCst);
        if self.refuse_publishes.load(Ordering::SeqCst) {
            return Err(MqError::Disconnected);
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
fn teardown_publishes_nothing() {
    // Every thread a run owns parks on a channel of this process, so
    // teardown needs nothing from the broker: with every further publish
    // refused — the connection is gone for good — `shutdown` still
    // returns, and it never even tries one.
    let broker = Arc::new(DisconnectingBroker::default());
    let scheduler = Scheduler::new(broker.clone(), tracing_registry()).with_options(pool_options());
    let run = scheduler.launch(&fig2());
    run.wait(WAIT).expect("fig2 completes");
    broker.refuse_publishes.store(true, Ordering::SeqCst);
    let published = broker.publishes.load(Ordering::SeqCst);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        run.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on an unreachable broker");
    assert_eq!(
        broker.publishes.load(Ordering::SeqCst),
        published,
        "teardown published"
    );
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

/// Names (`/proc/self/task/*/comm`) of this process's threads that start
/// with `sa-`, the prefix of every thread a run spawns.
fn run_thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        // A thread may exit between the listing and the read.
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("sa-"))
        .collect()
}

#[test]
fn a_run_owns_its_workers_and_no_other_thread() {
    // Status is folded by whoever delivers it and a dead agent is
    // replaced by the worker that saw it die: no thread exists only to
    // wait. Sibling tests run in this process too, so the check is on
    // what kinds of run thread exist, not on how many. Auto recovery is
    // on, and used: the respawn below happens on a worker.
    let mut registry = ServiceRegistry::tracing_for(["s2", "s3", "s4"]);
    registry.register(
        "s1",
        Arc::new(SlowTrace(
            ginflow_core::TraceService::new("s1"),
            Duration::from_millis(200),
        )),
    );
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry)).with_options(RunOptions {
            auto_recover: true,
            ..pool_options()
        });
    let run = scheduler.launch(&fig2());
    assert!(run.kill("T3"));
    // A thread names itself as it starts: wait for this run's to have.
    let deadline = std::time::Instant::now() + WAIT;
    let names = loop {
        let names = run_thread_names();
        if names.iter().filter(|n| n.starts_with("sa-worker-")).count() >= 2 {
            break names;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the run's workers never appeared: {names:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        names.iter().all(|n| n.starts_with("sa-worker-")),
        "a run thread that is not a worker: {names:?}"
    );
    run.wait(WAIT).expect("fig2 completes");
    assert!(run.incarnation("T3") >= 1, "T3 was respawned by a worker");
    run.shutdown();
}

/// A service that parks until the test opens the gate, then traces.
struct Gated(
    ginflow_core::TraceService,
    Mutex<std::sync::mpsc::Receiver<()>>,
);

impl ginflow_core::Service for Gated {
    fn invoke(&self, params: &[Value]) -> Result<Value, ginflow_core::ServiceError> {
        let _ = self.1.lock().unwrap().recv();
        self.0.invoke(params)
    }
}

/// `voluntary_ctxt_switches` of the calling thread: how often it has
/// parked (blocked in the kernel) so far.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("voluntary_ctxt_switches in /proc/thread-self/status");
    line.trim().parse().unwrap()
}

#[test]
fn a_thread_parked_in_wait_is_woken_when_the_run_ends_and_at_no_other_time() {
    // 500 tasks publish 1000 status updates while a thread sits in
    // `wait`. The tracker's condvar is notified when the run ends and
    // at no other time, so the waiter parks once — counted by the
    // kernel, not timed: park, wake, and at most a contended lock on
    // the way out. (With a wake-up per accepted update this reads
    // ≈ 960.) The first task is gated so the whole chain runs while
    // the waiter is parked.
    let (gate, opened) = std::sync::mpsc::channel();
    let mut registry = ServiceRegistry::tracing_for(["s"]);
    registry.register(
        "gate",
        Arc::new(Gated(
            ginflow_core::TraceService::new("gate"),
            Mutex::new(opened),
        )),
    );
    let mut b = WorkflowBuilder::new("gated-chain");
    b.task("t0", "gate").input(Value::str("x"));
    for i in 1..500 {
        b.task(format!("t{i}"), "s").after([format!("t{}", i - 1)]);
    }
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry)).with_options(RunOptions {
            workers: 1,
            ..RunOptions::default()
        });
    let run = scheduler.launch(&b.build().unwrap());
    let (parking, about_to_park) = std::sync::mpsc::channel();
    let parked = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            let before = voluntary_switches();
            parking.send(()).unwrap();
            let results = run.wait(WAIT).expect("the chain completes");
            assert!(results.contains_key("t499"));
            voluntary_switches() - before
        });
        about_to_park.recv().unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(run.state_of("t0"), Some(TaskState::Running));
        gate.send(()).unwrap();
        waiter.join().unwrap()
    });
    assert!(parked <= 4, "the waiter parked {parked} times");
    assert_eq!(run.report().completed_tasks(), 500);
    run.shutdown();
}

#[test]
fn wait_returns_the_moment_the_run_fails() {
    // The only task fails and nothing watches it: `RunFailed` is on the
    // event stream at once, and `wait` reads the same record — it says
    // so now instead of sitting out its timeout.
    let mut registry = ServiceRegistry::new();
    registry.register("s1", Arc::new(FailingService));
    let mut b = WorkflowBuilder::new("one-failing-task");
    b.task("only", "s1").input(Value::str("x"));
    let scheduler = Scheduler::new(BrokerKind::Transient.build(), Arc::new(registry))
        .with_options(pool_options());
    let run = scheduler.launch(&b.build().unwrap());
    let started = std::time::Instant::now();
    match run.wait(WAIT) {
        Err(WaitError::Failed(RunFailure::SinkFailed { task })) => assert_eq!(task, "only"),
        other => panic!("expected Failed(SinkFailed), got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "wait sat out {:?} of a {WAIT:?} timeout",
        started.elapsed()
    );
    assert_eq!(run.state_of("only"), Some(TaskState::Failed));
    run.shutdown();
}

#[test]
fn concurrent_folds_keep_every_tasks_transitions_in_order_exactly_once() {
    // Four workers publish status to an in-process log at once, so four
    // threads compete to fold. Whatever the interleaving, each task's
    // transitions must come out in its own order, each exactly once: a
    // lost update leaves a gap, a reordered one a wrong `from`.
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker, tracing_registry()).with_options(RunOptions {
        workers: 4,
        ..RunOptions::default()
    });
    let wf = patterns::diamond(12, 12, ginflow_core::Connectivity::Simple, "s").unwrap();
    let run = scheduler.launch(&wf);
    let events = run.events();
    run.wait(WAIT).expect("the diamond completes");
    run.shutdown();
    let mut transitions: HashMap<String, Vec<(Option<TaskState>, TaskState)>> = HashMap::new();
    for event in events {
        if let RunEvent::TaskStateChanged { task, from, to, .. } = event {
            transitions.entry(task).or_default().push((from, to));
        }
    }
    assert_eq!(transitions.len(), wf.dag().len());
    for (task, seen) in &transitions {
        assert_eq!(
            seen,
            &[
                (None, TaskState::Running),
                (Some(TaskState::Running), TaskState::Completed)
            ],
            "{task}"
        );
    }
}

/// A log broker that records how the scheduler publishes: the size of
/// every batch, and how many publishes bypassed batching.
#[derive(Default)]
struct RecordingBroker {
    log: LogBroker,
    batch_sizes: Mutex<Vec<usize>>,
    unbatched_nowait: AtomicUsize,
    blocking: AtomicUsize,
}

impl Broker for RecordingBroker {
    fn publish(
        &self,
        topic: &str,
        key: Option<bytes::Bytes>,
        payload: bytes::Bytes,
    ) -> Result<Receipt, MqError> {
        self.blocking.fetch_add(1, Ordering::SeqCst);
        self.log.publish(topic, key, payload)
    }

    fn publish_nowait(
        &self,
        topic: &str,
        key: Option<bytes::Bytes>,
        payload: bytes::Bytes,
    ) -> Result<(), MqError> {
        self.unbatched_nowait.fetch_add(1, Ordering::SeqCst);
        self.log.publish_nowait(topic, key, payload)
    }

    fn publish_many_nowait(
        &self,
        batch: Vec<(String, Option<bytes::Bytes>, bytes::Bytes)>,
    ) -> Result<(), MqError> {
        self.batch_sizes.lock().unwrap().push(batch.len());
        self.log.publish_many_nowait(batch)
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        self.log.subscribe(topic, mode)
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
fn a_chain_task_hands_the_broker_two_batches() {
    // Receive → `Running` out before the service starts (a batch of 1)
    // → complete → `Completed` and the result for the successor in one
    // batch of 2 (the sink has no successor: 1). Nothing goes around
    // the batch path.
    let broker = Arc::new(RecordingBroker::default());
    let scheduler = Scheduler::new(broker.clone(), tracing_registry()).with_options(pool_options());
    let run = scheduler.launch(&patterns::sequence(50, "s").unwrap());
    run.wait(WAIT).expect("the chain completes");
    run.shutdown();
    let sizes = broker.batch_sizes.lock().unwrap().clone();
    assert_eq!(sizes.len(), 100, "{sizes:?}");
    assert_eq!(sizes.iter().filter(|&&n| n == 1).count(), 51);
    assert_eq!(sizes.iter().filter(|&&n| n == 2).count(), 49);
    assert_eq!(broker.unbatched_nowait.load(Ordering::SeqCst), 0);
    assert_eq!(broker.blocking.load(Ordering::SeqCst), 0);
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
