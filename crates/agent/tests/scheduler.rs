//! Integration tests of the event-driven worker-pool scheduler: the
//! complete decentralised protocol on a bounded pool — normal runs at
//! scale, adaptation, and crash/recovery with inbox replay (mirrors
//! `tests/runtime.rs` with workers ≪ agents).

use ginflow_agent::{
    RunEvent, RunFailure, RunId, RunOptions, SaMessage, Scheduler, TopicNamespace, WaitError,
};
use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
use ginflow_core::{patterns, FailingService, ServiceRegistry, TaskState, Value, Workflow};
use ginflow_mq::{Broker, LogBroker, Message, MqError, Receipt, SubscribeMode, Subscription};
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
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), tracing_registry()).with_options(pool_options());
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
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry)).with_options(pool_options());
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
/// The first few subscribes of `launch` — the requests a run cannot do
/// without — and, once `refuse_publishes` is set, every publish. Publish
/// attempts are counted; every flavour of publish reaches `publish`
/// through the trait's defaults. With `refuse_fetches` set, every fetch
/// fails the way a daemon that stopped answering fails it: `Timeout`.
/// Fetch attempts are counted too.
#[derive(Default)]
struct DisconnectingBroker {
    log: LogBroker,
    publishes: AtomicUsize,
    refuse_publishes: AtomicBool,
    subscribe_drops_left: AtomicUsize,
    fetches: AtomicUsize,
    refuse_fetches: AtomicBool,
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

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        self.fetches.fetch_add(1, Ordering::SeqCst);
        if self.refuse_fetches.load(Ordering::SeqCst) {
            return Err(MqError::Timeout);
        }
        self.log.fetch(topic, partition, from_offset, max)
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
}

#[test]
fn a_refill_that_cannot_read_the_log_ends_its_agent_for_good() {
    // With auto recovery on, a death respawns the agent, and the
    // respawn is refilled from the log on its first turn. When that
    // read fails for good — not a dropped connection, which is retried —
    // the second death is final: one incarnation more, one fetch, and no
    // loop of respawns each failing the same read.
    let broker = Arc::new(DisconnectingBroker {
        refuse_fetches: AtomicBool::new(true),
        ..DisconnectingBroker::default()
    });
    let scheduler = Scheduler::new(broker.clone(), tracing_registry()).with_options(RunOptions {
        auto_recover: true,
        ..pool_options()
    });
    let run = scheduler.launch(&fig2());
    assert!(run.kill("T2"));
    let deadline = std::time::Instant::now() + WAIT;
    while run.alive("T2") || run.incarnation("T2") == 0 {
        assert!(std::time::Instant::now() < deadline, "T2 never ended");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Long enough for a respawn loop to show.
    std::thread::sleep(Duration::from_millis(200));
    assert!(!run.alive("T2"));
    assert_eq!(run.incarnation("T2"), 1);
    assert_eq!(broker.fetches.load(Ordering::SeqCst), 1);
    run.shutdown();
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
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry)).with_options(pool_options());
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

/// A log broker that records how the scheduler uses it: the size of
/// every publish batch, how many publishes bypassed batching, and how
/// many subscribe calls were made, single and bulk.
#[derive(Default)]
struct RecordingBroker {
    log: LogBroker,
    batch_sizes: Mutex<Vec<usize>>,
    unbatched_nowait: AtomicUsize,
    blocking: AtomicUsize,
    subscribes: AtomicUsize,
    bulk_subscribes: AtomicUsize,
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
        self.subscribes.fetch_add(1, Ordering::SeqCst);
        self.log.subscribe(topic, mode)
    }

    fn subscribe_many(
        &self,
        requests: &[(String, SubscribeMode)],
    ) -> Result<Vec<Subscription>, MqError> {
        self.bulk_subscribes.fetch_add(1, Ordering::SeqCst);
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

    fn partitions(&self, topic: &str) -> u32 {
        self.log.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.log.retained(topic)
    }

    fn delete_topic(&self, topic: &str) -> bool {
        self.log.delete_topic(topic)
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
fn a_launch_subscribes_twice_whatever_its_width() {
    // Status and the run's one inbox, at 10 tasks and at 1000, a killed
    // and respawned agent included: no topic and no subscription per
    // agent or per incarnation. The topics are read before teardown,
    // which deletes both.
    for width in [8, 998] {
        let broker = Arc::new(RecordingBroker::default());
        let scheduler =
            Scheduler::new(broker.clone(), tracing_registry()).with_options(pool_options());
        let wf = patterns::parallel(width, "s").unwrap();
        let run = scheduler.launch(&wf);
        let run_id = run.run_id().to_owned();
        assert!(run.kill("p1"));
        assert!(run.respawn("p1"));
        run.wait(WAIT).expect("the fan completes");
        let mut topics = broker.log.topic_names();
        topics.sort();
        assert_eq!(
            topics,
            [
                format!("run/{run_id}/sa.inbox"),
                format!("run/{run_id}/status")
            ]
        );
        run.shutdown();
        assert_eq!(
            broker.subscribes.load(Ordering::SeqCst),
            2,
            "{} tasks",
            wf.dag().len()
        );
        assert_eq!(broker.bulk_subscribes.load(Ordering::SeqCst), 0);
        assert!(
            broker.log.topic_names().is_empty(),
            "{} tasks: shutdown left a topic",
            wf.dag().len()
        );
    }
}

/// A `Result` from `from` carrying `value`, as an agent would send it.
fn result_payload(from: &str, value: &str) -> bytes::Bytes {
    SaMessage::Result {
        from: from.into(),
        value: Value::str(value),
    }
    .encode()
}

#[test]
fn a_respawned_agent_replays_only_its_own_key_in_log_order() {
    // `a` is gated, so nothing the run sends reaches `b` or `c` until
    // the end. Meanwhile the log interleaves results keyed to `c` with
    // two keyed to `b` — the killed agent, which drops them — and an
    // unknown key. The respawned `b` is refilled from its key's
    // partition of the log and must hand its core only `b`'s messages,
    // in log order: its service then runs on the first of them. `c`,
    // built by the run's inbox on its first message, gets it the same
    // way.
    let (gate, opened) = std::sync::mpsc::channel();
    let mut registry = ServiceRegistry::tracing_for(["s"]);
    registry.register(
        "gate",
        Arc::new(Gated(
            ginflow_core::TraceService::new("gate"),
            Mutex::new(opened),
        )),
    );
    let mut b = WorkflowBuilder::new("keyed-replay");
    b.task("a", "gate").input(Value::str("x"));
    b.task("b", "s").after(["a"]);
    b.task("c", "s").after(["a"]);
    let broker = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker.clone(), Arc::new(registry)).with_options(pool_options());
    let run = scheduler.launch(&b.build().unwrap());
    // Declared after the run, so a failing assertion drops the gate
    // first and teardown does not wait on the parked service.
    let gate = gate;
    assert!(run.kill("b"));

    let inbox = TopicNamespace::new(RunId::new(run.run_id()).unwrap())
        .inbox()
        .to_owned();
    for (key, value) in [
        ("c", "c-first"),
        ("b", "b-first"),
        ("nobody", "stray"),
        ("c", "c-second"),
        ("b", "b-second"),
    ] {
        broker
            .publish(&inbox, Some(key.into()), result_payload("a", value))
            .unwrap();
    }
    assert!(run.respawn("b"));
    assert_eq!(run.incarnation("b"), 1);
    gate.send(()).unwrap();
    let results = run.wait(WAIT).expect("the run completes");
    assert_eq!(results["b"], Value::Str("s(b-first)".into()));
    assert_eq!(results["c"], Value::Str("s(c-first)".into()));
    run.shutdown();
}

/// A service that says when it is entered, then parks until the test
/// opens the gate.
struct Parked {
    entered: Mutex<std::sync::mpsc::Sender<()>>,
    gate: Mutex<std::sync::mpsc::Receiver<()>>,
}

impl ginflow_core::Service for Parked {
    fn invoke(&self, _params: &[Value]) -> Result<Value, ginflow_core::ServiceError> {
        self.entered.lock().unwrap().send(()).unwrap();
        let _ = self.gate.lock().unwrap().recv();
        Ok(Value::str("done"))
    }
}

#[test]
fn a_second_cancel_returns_only_once_the_first_has_torn_the_run_down() {
    // The run's one worker is parked in a service, so the first cancel
    // joins it only once the gate opens. A cancel made meanwhile must
    // wait for that teardown too: no thread outlives either call, and
    // after both the broker holds none of the run's topics.
    let (entered, in_service) = std::sync::mpsc::channel();
    let (gate, opened) = std::sync::mpsc::channel();
    let mut registry = ServiceRegistry::new();
    registry.register(
        "park",
        Arc::new(Parked {
            entered: Mutex::new(entered),
            gate: Mutex::new(opened),
        }),
    );
    let mut b = WorkflowBuilder::new("parked");
    b.task("a", "park").input(Value::str("x"));
    let broker = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker.clone(), Arc::new(registry)).with_options(RunOptions {
        workers: 1,
        ..RunOptions::default()
    });
    let run = scheduler.launch(&b.build().unwrap());
    in_service
        .recv_timeout(WAIT)
        .expect("the service is entered");
    let (returned, cancels) = std::sync::mpsc::channel();
    let early = std::thread::scope(|scope| {
        for which in ["first", "second"] {
            let (run, returned) = (&run, returned.clone());
            scope.spawn(move || {
                run.cancel();
                returned.send(which).unwrap();
            });
            // The first takes the workers before the second calls.
            std::thread::sleep(Duration::from_millis(50));
        }
        let early = cancels.recv_timeout(Duration::from_millis(200)).ok();
        // Opened whatever the verdict, so that a failure cannot hang.
        gate.send(()).unwrap();
        early
    });
    assert_eq!(early, None, "a cancel returned while the worker was parked");
    assert_eq!(cancels.try_iter().count(), 2, "both cancels returned");
    assert_eq!(broker.topic_names(), Vec::<String>::new());
}

#[test]
fn a_chain_holds_one_agent_at_a_time_whatever_its_length() {
    // Every agent is built by its own first turn and, on a log, evicted
    // at the end of the turn that completes it. The successor its result
    // queues waits for a turn of its own on the one worker, so a chain
    // holds only the agent at work — at 10 tasks as at 1000.
    for len in [10, 1000] {
        let scheduler = Scheduler::new(Arc::new(LogBroker::new()), tracing_registry())
            .with_options(RunOptions {
                workers: 1,
                ..RunOptions::default()
            });
        let report = scheduler
            .launch(&patterns::sequence(len, "s").unwrap())
            .join();
        assert!(report.completed, "{len} tasks");
        assert_eq!(report.completed_tasks(), len);
        assert_eq!(report.resident_peak, 1, "{len} tasks");
        assert_eq!(report.rehydrations, 0);
    }
}

#[test]
fn a_wide_fan_out_holds_one_agent_at_a_time_on_one_worker() {
    // One worker takes its slots in FIFO order. The fork's turn queues
    // all 2000 branches and is evicted at its end; each branch is built
    // on its own turn, queues its result for the join — whose slot the
    // first one makes, behind every branch — and is evicted. The join is
    // built last, once every branch is gone: 1 at a time, where holding
    // every queued agent's program would read 2001.
    let wide = patterns::parallel(2000, "s").unwrap();
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), tracing_registry()).with_options(RunOptions {
            workers: 1,
            ..RunOptions::default()
        });
    let report = scheduler.launch(&wide).join();
    assert!(report.completed);
    assert_eq!(report.completed_tasks(), 2002);
    assert_eq!(report.resident_peak, 1);
    assert_eq!(report.rehydrations, 0);
}

#[test]
fn launch_builds_only_the_sources() {
    // The gated source holds the run at its first invoke: until it
    // completes, no other agent has a message, so none exists.
    let (gate, opened) = std::sync::mpsc::channel();
    let mut registry = ServiceRegistry::tracing_for(["s"]);
    registry.register(
        "gate",
        Arc::new(Gated(
            ginflow_core::TraceService::new("gate"),
            Mutex::new(opened),
        )),
    );
    let mut b = WorkflowBuilder::new("gated-fan");
    b.task("a", "gate").input(Value::str("x"));
    for i in 0..100 {
        b.task(format!("b{i}"), "s").after(["a"]);
    }
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry)).with_options(pool_options());
    let run = scheduler.launch(&b.build().unwrap());
    let gate = gate;
    let deadline = std::time::Instant::now() + WAIT;
    while run.state_of("a") != Some(TaskState::Running) {
        assert!(std::time::Instant::now() < deadline, "a never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(run.report().resident_peak, 1);
    assert!(run.alive("b7"), "an agent not built yet has not crashed");
    assert_eq!(run.incarnation("b7"), 0);
    gate.send(()).unwrap();
    let report = run.join();
    assert_eq!(report.completed_tasks(), 101);
}

/// A service that counts its invocations, then traces.
struct Counted(ginflow_core::TraceService, Arc<AtomicUsize>);

impl ginflow_core::Service for Counted {
    fn invoke(&self, params: &[Value]) -> Result<Value, ginflow_core::ServiceError> {
        self.1.fetch_add(1, Ordering::SeqCst);
        self.0.invoke(params)
    }
}

/// A registry over `services`, each counted in the returned map.
fn counted_registry(services: &[&str]) -> (ServiceRegistry, HashMap<String, Arc<AtomicUsize>>) {
    let mut registry = ServiceRegistry::new();
    let mut calls = HashMap::new();
    for &name in services {
        let count = Arc::new(AtomicUsize::new(0));
        registry.register(
            name,
            Arc::new(Counted(
                ginflow_core::TraceService::new(name),
                count.clone(),
            )),
        );
        calls.insert(name.to_owned(), count);
    }
    (registry, calls)
}

#[test]
fn an_adaptation_rehydrates_the_evicted_source_without_invoking_it_again() {
    // fig5 behind a head task T0, on a log, one worker: T1 receives T0's
    // result, completes, sends and is evicted before T2 runs and fails.
    // The ADAPT that asks T1 to resend its result to T2' rebuilds it: it
    // reads T0's result back from the log and replays it muted — s1
    // answered from its tombstone — then resends, under the same
    // incarnation. Nobody observes a respawn. (Without the head, T1 is
    // a source with no past to read.)
    for head in [true, false] {
        let (mut registry, calls) = counted_registry(&["s0", "s1", "s3", "s4", "s2p"]);
        registry.register("s2", Arc::new(FailingService));
        let mut b = WorkflowBuilder::new("fig5");
        if head {
            b.task("T0", "s0").input(Value::str("input"));
            b.task("T1", "s1").after(["T0"]);
        } else {
            b.task("T1", "s1").input(Value::str("input"));
        }
        b.task("T2", "s2").after(["T1"]);
        b.task("T3", "s3").after(["T1"]);
        b.task("T4", "s4").after(["T2", "T3"]);
        b.adaptation(
            "replace-T2",
            ["T2"],
            ["T2"],
            [ReplacementTask::new("T2'", "s2p", ["T1"])],
        );
        let scheduler = Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry))
            .with_options(RunOptions {
                workers: 1,
                ..RunOptions::default()
            });
        let report = scheduler.launch(&b.build().unwrap()).join();
        assert!(report.completed, "head: {head}");
        let t1 = if head { "s1(s0(input))" } else { "s1(input)" };
        assert_eq!(
            report.result_of("T4"),
            Some(&Value::Str(format!("s4(s2p({t1}),s3({t1}))")))
        );
        assert_eq!(report.rehydrations, 1);
        for (service, count) in &calls {
            let expected = usize::from(head || service != "s0");
            assert_eq!(count.load(Ordering::SeqCst), expected, "{service}");
        }
        assert_eq!(report.respawns, 0);
        assert_eq!(report.tasks["T1"].incarnation, 0);
    }
}

#[test]
fn a_late_duplicate_rehydrates_its_agent_and_changes_nothing() {
    // After fig2 has completed, every agent is a tombstone. A duplicate
    // result keyed to T2 rebuilds T2 by replay — its first message
    // muted, s2 answered from the tombstone — and the duplicate itself
    // is inert: nothing is invoked, sent or published. One worker runs
    // T2's whole first turn before T3's, so once the second rehydration
    // is counted the first agent's turn is over.
    let (registry, calls) = counted_registry(&["s1", "s2", "s3", "s4"]);
    let broker = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker.clone(), Arc::new(registry)).with_options(RunOptions {
        workers: 1,
        ..RunOptions::default()
    });
    let run = scheduler.launch(&fig2());
    let results = run.wait(WAIT).expect("fig2 completes");
    let ns = TopicNamespace::new(RunId::new(run.run_id()).unwrap());
    let (inbox, status) = (broker.retained(ns.inbox()), broker.retained(ns.status()));
    for (i, task) in ["T2", "T3"].into_iter().enumerate() {
        broker
            .publish(ns.inbox(), Some(task.into()), result_payload("T1", "dup"))
            .unwrap();
        let deadline = std::time::Instant::now() + WAIT;
        while run.report().rehydrations < i as u64 + 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{task} not rehydrated"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(broker.retained(ns.inbox()), inbox + 2, "only the forgeries");
    assert_eq!(broker.retained(ns.status()), status);
    for (service, count) in &calls {
        assert_eq!(count.load(Ordering::SeqCst), 1, "{service}");
    }
    assert_eq!(run.incarnation("T2"), 0);
    assert_eq!(run.result_of("T4"), Some(results["T4"].clone()));
    run.shutdown();
}

#[test]
fn a_respawned_agent_is_evicted_and_rehydrated_like_any_other() {
    // One worker, held by the gated T1 until T2 has been killed and
    // respawned: the newcomer is refilled from the log live — s2 runs
    // once, in it — completes and is evicted like any other agent. A
    // forged late duplicate then rehydrates it under the respawned
    // incarnation, its past muted: s2 is not invoked again. A second
    // forgery, to T3, queues behind T2's turn on the one worker, so once
    // it is counted that turn is over.
    let (mut registry, calls) = counted_registry(&["s2", "s3", "s4"]);
    let (gate, opened) = std::sync::mpsc::channel();
    registry.register(
        "s1",
        Arc::new(Gated(
            ginflow_core::TraceService::new("s1"),
            Mutex::new(opened),
        )),
    );
    let broker = Arc::new(LogBroker::new());
    let scheduler = Scheduler::new(broker.clone(), Arc::new(registry)).with_options(RunOptions {
        workers: 1,
        ..RunOptions::default()
    });
    let run = scheduler.launch(&fig2());
    let gate = gate;
    assert!(run.kill("T2"));
    assert!(run.respawn("T2"));
    gate.send(()).unwrap();
    let results = run.wait(WAIT).expect("fig2 completes");
    assert_eq!(calls["s2"].load(Ordering::SeqCst), 1);
    let ns = TopicNamespace::new(RunId::new(run.run_id()).unwrap());
    for (i, task) in ["T2", "T3"].into_iter().enumerate() {
        broker
            .publish(ns.inbox(), Some(task.into()), result_payload("T1", "dup"))
            .unwrap();
        let deadline = std::time::Instant::now() + WAIT;
        while run.report().rehydrations < i as u64 + 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{task} not rehydrated"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(run.report().rehydrations, i as u64 + 1);
    }
    for (service, count) in &calls {
        assert_eq!(count.load(Ordering::SeqCst), 1, "{service}");
    }
    assert_eq!(run.incarnation("T2"), 1);
    assert_eq!(run.result_of("T4"), Some(results["T4"].clone()));
    run.shutdown();
}

#[test]
fn agents_never_built_are_killed_respawned_and_rehydrated_from_a_fresh_compile() {
    // fig5 behind a gated head T0, on one worker, with T2 failing. While
    // T0 holds the worker no other agent has been built, and no program
    // exists for any: the kill of T4 and the respawns of T4 (mv_src), T1
    // (add_dst) and the standby T2' (activate) only queue slots, so T0
    // is still the one agent built. Each newcomer is built by its first
    // turn from a compile of its own; the killed T4 dies unbuilt. The
    // adaptation then runs through the respawned programs, and a late
    // duplicate rehydrates T4 — compiled once more — without invoking s4
    // again. Every task ends as it does undisturbed.
    let run = |disturb: bool| {
        let (mut registry, calls) = counted_registry(&["s1", "s3", "s4", "s2p"]);
        registry.register("s2", Arc::new(FailingService));
        let (gate, opened) = std::sync::mpsc::channel();
        registry.register(
            "s0",
            Arc::new(Gated(
                ginflow_core::TraceService::new("s0"),
                Mutex::new(opened),
            )),
        );
        let mut b = WorkflowBuilder::new("fig5-head");
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
        let broker = Arc::new(LogBroker::new());
        let scheduler =
            Scheduler::new(broker.clone(), Arc::new(registry)).with_options(RunOptions {
                workers: 1,
                ..RunOptions::default()
            });
        let handle = scheduler.launch(&b.build().unwrap());
        // Dropped before the run, so a failed assertion opens the gate.
        let gate = gate;
        if disturb {
            let deadline = std::time::Instant::now() + WAIT;
            while handle.state_of("T0") != Some(TaskState::Running) {
                assert!(std::time::Instant::now() < deadline, "T0 never started");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(handle.report().resident_peak, 1);
            assert!(handle.kill("T4"));
            for task in ["T4", "T1", "T2'"] {
                assert!(handle.respawn(task), "{task}");
                assert_eq!(handle.incarnation(task), 1, "{task}");
            }
            assert_eq!(handle.report().resident_peak, 1);
        }
        gate.send(()).unwrap();
        handle.wait(WAIT).expect("fig5 completes");
        if disturb {
            let ns = TopicNamespace::new(RunId::new(handle.run_id()).unwrap());
            broker
                .publish(ns.inbox(), Some("T4".into()), result_payload("T3", "dup"))
                .unwrap();
            let deadline = std::time::Instant::now() + WAIT;
            while handle.report().rehydrations < 1 {
                assert!(std::time::Instant::now() < deadline, "T4 not rehydrated");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(handle.incarnation("T4"), 1);
        }
        for (service, count) in &calls {
            assert_eq!(
                count.load(Ordering::SeqCst),
                1,
                "{service}, disturbed: {disturb}"
            );
        }
        handle.join()
    };
    let (plain, disturbed) = (run(false), run(true));
    assert!(plain.completed && disturbed.completed);
    assert_eq!(plain.adaptations_fired, 1);
    assert_eq!(disturbed.adaptations_fired, 1);
    assert_eq!(
        plain.result_of("T4"),
        Some(&Value::str("s4(s2p(s1(s0(input))),s3(s1(s0(input))))"))
    );
    for (task, expected) in &plain.tasks {
        let got = &disturbed.tasks[task];
        assert_eq!(
            (got.state, &got.result),
            (expected.state, &expected.result),
            "{task}"
        );
    }
    assert_eq!(disturbed.respawns, 3);
}

/// A log broker whose fetches run ahead of its deliveries, the way a
/// lagging demultiplexer sees the log: every publish lands in `ahead`,
/// which serves fetches, at once, but reaches `live`, which serves
/// subscriptions, only on [`LaggingBroker::release`] while `holding` is
/// set — or, with `release_on_fetch`, inside the next fetch, before it
/// reads. Publishes are serialized, so both logs give a message one
/// offset.
#[derive(Default)]
struct LaggingBroker {
    live: LogBroker,
    ahead: LogBroker,
    holding: AtomicBool,
    release_on_fetch: AtomicBool,
    held: Mutex<Vec<(String, Option<bytes::Bytes>, bytes::Bytes)>>,
}

impl LaggingBroker {
    /// Deliver what was held, and hold nothing more.
    fn release(&self) {
        let mut held = self.held.lock().unwrap();
        self.holding.store(false, Ordering::SeqCst);
        for (topic, key, payload) in held.drain(..) {
            self.live.publish(&topic, key, payload).unwrap();
        }
    }
}

impl Broker for LaggingBroker {
    fn publish(
        &self,
        topic: &str,
        key: Option<bytes::Bytes>,
        payload: bytes::Bytes,
    ) -> Result<Receipt, MqError> {
        let mut held = self.held.lock().unwrap();
        let receipt = self.ahead.publish(topic, key.clone(), payload.clone())?;
        if self.holding.load(Ordering::SeqCst) {
            held.push((topic.to_owned(), key, payload));
        } else {
            self.live.publish(topic, key, payload)?;
        }
        Ok(receipt)
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        self.live.subscribe(topic, mode)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        if self.release_on_fetch.swap(false, Ordering::SeqCst) {
            self.release();
        }
        self.ahead.fetch(topic, partition, from_offset, max)
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.ahead.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.ahead.retained(topic)
    }
}

/// A service that reports each call entering it, then parks until the
/// test opens the gate, then traces.
struct Signalled(
    ginflow_core::TraceService,
    Mutex<std::sync::mpsc::Sender<()>>,
    Mutex<std::sync::mpsc::Receiver<()>>,
);

impl ginflow_core::Service for Signalled {
    fn invoke(&self, params: &[Value]) -> Result<Value, ginflow_core::ServiceError> {
        let _ = self.1.lock().unwrap().send(());
        let _ = self.2.lock().unwrap().recv();
        self.0.invoke(params)
    }
}

/// When the messages forged in `a_message_the_refill_read_is_handled_once`
/// reach the run's inbox subscription, relative to the newcomer's refill.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arrival {
    Before,
    During,
    After,
}

#[test]
fn a_message_the_refill_read_is_handled_once() {
    // One worker, held by T1's parked service. T1 is killed and
    // respawned, and two messages keyed to it are forged while the
    // newcomer waits for its first turn. Delivered at once, they are
    // queued before the newcomer's refill, which reads the log only up
    // to them; delivered while its refill fetches, they are queued and
    // read back from the log both; held back until it has parked in s1,
    // its refill over, they were read from the log already. Each way the
    // newcomer keeps one copy of each, so — completed, then evicted — it
    // has handled two messages, not four. A late ADAPT then rehydrates
    // it with those two muted and the ADAPT live: T1 resends its result
    // to the standby T2'. Had it counted four, the ADAPT would be muted
    // too, and nothing would reach T2'.
    for arrival in [Arrival::Before, Arrival::During, Arrival::After] {
        let (gate, opened) = std::sync::mpsc::channel::<()>();
        let (entering, entered) = std::sync::mpsc::channel::<()>();
        let mut registry = ServiceRegistry::tracing_for(["s2", "s3", "s4", "s2p"]);
        registry.register(
            "s1",
            Arc::new(Signalled(
                ginflow_core::TraceService::new("s1"),
                Mutex::new(entering),
                Mutex::new(opened),
            )),
        );
        let broker = Arc::new(LaggingBroker::default());
        let scheduler =
            Scheduler::new(broker.clone(), Arc::new(registry)).with_options(RunOptions {
                workers: 1,
                ..RunOptions::default()
            });
        let run = scheduler.launch(&fig5());
        let gate = gate;
        entered.recv_timeout(WAIT).expect("T1 enters s1");
        assert!(run.kill("T1"));
        assert!(run.respawn("T1"));
        let ns = TopicNamespace::new(RunId::new(run.run_id()).unwrap());
        broker
            .holding
            .store(arrival != Arrival::Before, Ordering::SeqCst);
        broker
            .release_on_fetch
            .store(arrival == Arrival::During, Ordering::SeqCst);
        for _ in 0..2 {
            broker
                .publish(ns.inbox(), Some("T1".into()), "noise".into())
                .unwrap();
        }
        // The killed incarnation leaves s1 and dies; the respawned one is
        // refilled and enters s1 in turn.
        gate.send(()).unwrap();
        entered
            .recv_timeout(WAIT)
            .expect("the respawned T1 enters s1");
        broker.release();
        // Every invoke of s1 from here on returns at once.
        drop(gate);
        run.wait(WAIT).expect("fig5 completes");

        let adapt = SaMessage::Adapt { adaptation: 0 }.encode();
        broker
            .publish(ns.inbox(), Some("T1".into()), adapt)
            .unwrap();
        let to_standby = || {
            broker
                .fetch(ns.inbox(), 0, 0, usize::MAX)
                .unwrap()
                .into_iter()
                .filter(|m| m.key.as_deref() == Some(b"T2'".as_slice()))
                .count()
        };
        let deadline = std::time::Instant::now() + WAIT;
        while to_standby() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{arrival:?}: T1 never resent"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(to_standby(), 1, "{arrival:?}");
        assert_eq!(run.report().rehydrations, 1);
        run.shutdown();
    }
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
