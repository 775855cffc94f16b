//! An unsharded run is the only writer of its two topics: it numbers its
//! records, delivers them to its own agents and tracker, and ships them
//! to the daemon in log order. So the daemon opens no subscription for
//! it and pushes it no EVENTS, and at `join` the daemon's two topics are
//! an exact replica of what the run shipped — offset for offset, byte
//! for byte — across severed links too. Counted, not timed.

use bytes::Bytes;
use ginflow_core::{
    patterns, Service, ServiceError, ServiceRegistry, TraceService, Value, Workflow,
    WorkflowBuilder,
};
use ginflow_engine::{Engine, RunId, TopicNamespace};
use ginflow_mq::{Broker, LogBroker, Message, MqError, Receipt, SubscribeMode, Subscription};
use ginflow_net::fault::{ChaosHarness, FaultPlan};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The engine's broker, recording every record the run ships.
struct Recorder {
    inner: Arc<dyn Broker>,
    shipped: Mutex<Vec<Message>>,
}

impl Broker for Recorder {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        self.inner.publish(topic, key, payload)
    }

    fn append_many(&self, batch: Vec<Message>) -> Result<(), MqError> {
        self.shipped.lock().unwrap().extend(batch.iter().cloned());
        self.inner.append_many(batch)
    }

    fn wait_appended(&self) -> Result<(), MqError> {
        self.inner.wait_appended()
    }

    fn flush(&self) -> Result<(), MqError> {
        self.inner.flush()
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        self.inner.subscribe(topic, mode)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        self.inner.fetch(topic, partition, from_offset, max)
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.inner.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.inner.retained(topic)
    }
}

/// The daemon's log, counting the subscriptions the daemon opens on it
/// and refusing every publish to [`REFUSED`].
struct Counted {
    log: Arc<LogBroker>,
    subscribes: AtomicUsize,
}

/// The topic whose publishes [`Counted`] refuses.
const REFUSED: &str = "refused";

impl Counted {
    fn new(log: Arc<LogBroker>) -> Counted {
        Counted {
            log,
            subscribes: AtomicUsize::new(0),
        }
    }
}

impl Broker for Counted {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        if topic == REFUSED {
            return Err(MqError::Remote {
                message: format!("{REFUSED} takes no publish"),
            });
        }
        self.log.publish(topic, key, payload)
    }

    fn append_many(&self, batch: Vec<Message>) -> Result<(), MqError> {
        self.log.append_many(batch)
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        self.subscribes.fetch_add(1, Ordering::SeqCst);
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

    fn partitions(&self, topic: &str) -> u32 {
        self.log.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.log.retained(topic)
    }

    fn topic_names(&self) -> Vec<String> {
        self.log.topic_names()
    }
}

fn counter(name: &str) -> u64 {
    ginflow_mq::metrics::global()
        .snapshot()
        .iter()
        .filter(|row| row.name == name)
        .map(|row| row.value)
        .sum()
}

/// Run a chain of `n` tasks on `broker`, recorded, under `run`; returns
/// what the run shipped.
fn run_chain(broker: Arc<dyn Broker>, run: &str, n: usize) -> Vec<Message> {
    let recorder = Arc::new(Recorder {
        inner: broker,
        shipped: Mutex::new(Vec::new()),
    });
    let wf: Workflow = patterns::sequence(n, "s").unwrap();
    let report = Engine::builder()
        .broker(recorder.clone())
        .registry(Arc::new(ServiceRegistry::tracing_for(["s"])))
        .workers(1)
        .run_id(RunId::new(run).unwrap())
        .deadline(Duration::from_secs(60))
        .build()
        .launch(&wf)
        .join();
    assert!(report.completed, "{report:?}");
    let shipped = std::mem::take(&mut *recorder.shipped.lock().unwrap());
    // A chain of n: n − 1 results, a Running and a Completed per task.
    assert_eq!(shipped.len(), 3 * n - 1);
    shipped
}

/// Each record of `topic`: (partition, offset, key, payload), in
/// partition and offset order.
type Row = (u32, u64, Option<Bytes>, Bytes);

fn rows<'a>(messages: impl IntoIterator<Item = &'a Message>) -> Vec<Row> {
    let mut rows: Vec<Row> = messages
        .into_iter()
        .map(|m| (m.partition, m.offset, m.key.clone(), m.payload.clone()))
        .collect();
    rows.sort_by_key(|row| (row.0, row.1));
    rows
}

/// The daemon's two topics of `run` hold exactly what the run shipped.
fn assert_replica(daemon: &LogBroker, run: &str, shipped: &[Message], context: &str) {
    let ns = TopicNamespace::new(RunId::new(run).unwrap());
    for topic in [ns.inbox(), ns.status()] {
        let ours = rows(shipped.iter().filter(|m| &*m.topic == topic));
        let logged: Vec<Message> = (0..daemon.partitions(topic))
            .flat_map(|p| daemon.fetch(topic, p, 0, usize::MAX).unwrap())
            .collect();
        assert!(!ours.is_empty(), "{context}: {topic} shipped nothing");
        assert_eq!(rows(&logged), ours, "{context}: {topic}");
    }
}

#[test]
fn an_unsharded_chain_opens_no_subscription_gets_no_events_and_leaves_a_replica() {
    let log = Arc::new(LogBroker::new());
    let daemon = Arc::new(Counted::new(log.clone()));
    let server = Arc::new(BrokerServer::bind("127.0.0.1:0", daemon.clone()).unwrap());
    // Every run in this binary is unsharded, so no test moves this.
    let fanout = counter("gf_loop_fanout_messages_total");
    let dial = server.clone();
    let client = RemoteBroker::connect_with(Box::new(move || dial.connect_in_process())).unwrap();
    let shipped = run_chain(Arc::new(client), "replica", 200);
    assert_eq!(daemon.subscribes.load(Ordering::SeqCst), 0);
    assert_eq!(counter("gf_loop_fanout_messages_total"), fanout, "EVENTS");
    assert_replica(&log, "replica", &shipped, "one link");
    server.stop();
}

#[test]
fn a_replica_is_exact_across_severed_links() {
    // Every link dies after a few hundred frames, half of them mid-frame:
    // appends whose receipts died with a link are sent again on the
    // next, and the daemon skips what it has.
    let seed = ginflow_net::fault::seed_from_env(7);
    let plan = FaultPlan {
        sever_after_frames: Some((100, 300)),
        midframe_sever: 0.5,
        grace_frames: 2,
        ..FaultPlan::calm()
    };
    let h = ChaosHarness::new(seed, plan).unwrap();
    let client = h.client("replica").unwrap();
    let shipped = run_chain(Arc::new(client), "severed", 300);
    // The run's 899 APPEND frames alone need four links at 300 frames
    // a link at most: three of them severed under the run.
    let severs = h.net().stats().severs;
    assert!(
        severs >= 3,
        "only {severs} sever(s) (GINFLOW_FAULT_SEED={seed})"
    );
    let context = format!("{severs} severs, GINFLOW_FAULT_SEED={seed}");
    assert_replica(h.broker(), "severed", &shipped, &context);
}

#[test]
fn a_reused_run_id_numbers_on_from_where_its_topics_end() {
    // A pinned run id whose topics hold records already — a foreign
    // writer's, then another run's — learns each topic's end at launch:
    // every record it ships lands at the offset it numbered, after what
    // was there.
    let log = Arc::new(LogBroker::new());
    let ns = TopicNamespace::new(RunId::new("reused").unwrap());
    let mut before = Vec::new();
    for (topic, key, i) in [
        (ns.inbox(), Some("a"), 0),
        (ns.inbox(), Some("b"), 1),
        (ns.inbox(), Some("c"), 2),
        (ns.status(), None, 0),
        (ns.status(), None, 1),
    ] {
        let key = key.map(Bytes::from);
        let payload = Bytes::from(format!("noise {i}"));
        let receipt = log.publish(topic, key.clone(), payload.clone()).unwrap();
        before.push(Message {
            topic: topic.into(),
            partition: receipt.partition,
            offset: receipt.offset,
            key,
            payload,
        });
    }

    let server = Arc::new(BrokerServer::bind("127.0.0.1:0", log.clone()).unwrap());
    let dial = server.clone();
    let client: Arc<dyn Broker> =
        Arc::new(RemoteBroker::connect_with(Box::new(move || dial.connect_in_process())).unwrap());
    let first = run_chain(client.clone(), "reused", 40);
    let second = run_chain(client, "reused", 40);
    assert!(
        second.iter().all(|m| m.offset > 0),
        "numbered past the ends"
    );
    let all: Vec<Message> = [before, first, second].concat();
    assert_replica(&log, "reused", &all, "a run id used three times");
    server.stop();
}

#[test]
#[should_panic(expected = "over 2 partitions")]
fn a_reused_run_id_over_two_partitions_is_refused_at_launch() {
    // Where the inbox's partition 0 ends, its record count cannot tell.
    let log = Arc::new(LogBroker::with_default_partitions(2));
    let ns = TopicNamespace::new(RunId::new("split").unwrap());
    log.publish(ns.inbox(), None, Bytes::from_static(b"noise"))
        .unwrap();
    run_chain(log, "split", 2);
}

#[test]
fn a_publish_lost_on_a_shared_client_kills_no_agent_and_stays_on_its_ledger() {
    // The client's user publishes, pipelined, to a topic the daemon
    // refuses: the loss is on the client's ledger when a run on the same
    // client respawns an agent. The agent's refill waits for the run's
    // receipts only — it neither fails on the user's loss nor clears it
    // — so the agent lives and the run completes, and the user's flush
    // still reports the loss.
    let log = Arc::new(LogBroker::new());
    let server =
        Arc::new(BrokerServer::bind("127.0.0.1:0", Arc::new(Counted::new(log.clone()))).unwrap());
    let dial = server.clone();
    let client =
        Arc::new(RemoteBroker::connect_with(Box::new(move || dial.connect_in_process())).unwrap());
    let (gate, parked) = channel();
    let mut registry = ServiceRegistry::tracing_for(["s"]);
    registry.register(
        "gate",
        Arc::new(Gated(TraceService::new("gate"), Mutex::new(parked))),
    );
    // `source` and `join` run on different workers of the two.
    let mut b = WorkflowBuilder::new("ledger");
    b.task("source", "gate").input(Value::str("x"));
    b.task("join", "s").after(["source"]);
    let run = Engine::builder()
        .broker(client.clone())
        .registry(Arc::new(registry))
        .workers(2)
        .run_id(RunId::new("ledger").unwrap())
        .deadline(Duration::from_secs(20))
        .build()
        .launch(&b.build().unwrap());
    let gate = gate;
    client
        .publish_nowait(REFUSED, None, Bytes::from_static(b"lost"))
        .unwrap();
    // A request answered after the refusal: the loss is on the ledger.
    client.retained(REFUSED);
    assert!(run.respawn("join"));
    gate.send(()).unwrap();
    let report = run.join();
    assert!(report.completed, "{report:?}");
    assert_eq!(report.tasks["join"].incarnation, 1);
    assert_eq!(report.ship_failures, 0);
    match client.flush() {
        Err(MqError::Remote { message }) => {
            assert!(message.starts_with("1 pipelined"), "{message}")
        }
        other => panic!("the user's loss went unreported: {other:?}"),
    }
    server.stop();
}

#[test]
fn a_record_another_writer_displaced_is_reported_not_acked() {
    // A second writer takes offset 0 of a running unsharded run's inbox
    // before the run ships its first inbox record there. The broker
    // keeps the other writer's record and refuses the run's: in process
    // the refusal is the hand-off's error, which the report counts; over
    // a connection the daemon answers it with an ERROR, which lands on
    // the client's loss ledger. Either way the run itself, which
    // delivered the record in process, completes.
    for remote in [false, true] {
        let log = Arc::new(LogBroker::new());
        let server = Arc::new(BrokerServer::bind("127.0.0.1:0", log.clone()).unwrap());
        let dial = server.clone();
        let client = Arc::new(
            RemoteBroker::connect_with(Box::new(move || dial.connect_in_process())).unwrap(),
        );
        let broker: Arc<dyn Broker> = match remote {
            true => client.clone(),
            false => log.clone(),
        };
        let (gate, parked) = channel();
        let mut registry = ServiceRegistry::tracing_for(["s"]);
        registry.register(
            "gate",
            Arc::new(Gated(TraceService::new("gate"), Mutex::new(parked))),
        );
        let mut b = WorkflowBuilder::new("displaced");
        b.task("source", "gate").input(Value::str("x"));
        b.task("join", "s").after(["source"]);
        let run = Engine::builder()
            .broker(broker)
            .registry(Arc::new(registry))
            .workers(1)
            .run_id(RunId::new("displaced").unwrap())
            .deadline(Duration::from_secs(20))
            .build()
            .launch(&b.build().unwrap());
        let gate = gate;
        let inbox = TopicNamespace::new(RunId::new("displaced").unwrap())
            .inbox()
            .to_owned();
        log.publish(&inbox, None, Bytes::from_static(b"other"))
            .unwrap();
        gate.send(()).unwrap();
        run.wait(Duration::from_secs(20))
            .expect("the run completes");
        // Read before `join`, whose teardown deletes an in-process run's
        // topics.
        let first = log.fetch(&inbox, 0, 0, 1).unwrap();
        assert_eq!(&first[0].payload[..], b"other", "remote: {remote}");
        let report = run.join();
        assert!(report.completed, "remote: {remote}: {report:?}");
        match remote {
            false => assert_eq!(report.ship_failures, 1),
            true => {
                assert_eq!(report.ship_failures, 0);
                match client.flush() {
                    Err(MqError::Remote { message }) => {
                        assert!(message.starts_with("1 pipelined"), "{message}")
                    }
                    other => panic!("the refusal went unreported: {other:?}"),
                }
            }
        }
        server.stop();
    }
}

/// A service that answers once the test lets it.
struct Gated(TraceService, Mutex<Receiver<()>>);

impl Service for Gated {
    fn invoke(&self, params: &[Value]) -> Result<Value, ServiceError> {
        let _ = self.1.lock().unwrap().recv();
        self.0.invoke(params)
    }
}

#[test]
fn a_running_status_reaches_the_daemon_while_its_service_runs() {
    // Nothing flushes while a service runs, and nothing else is shipped:
    // the `Running` handed over before the invoke must reach the daemon
    // on its own, so an observer of the daemon's log sees the task at
    // work, as it would a shard's.
    let log = Arc::new(LogBroker::new());
    let server = Arc::new(BrokerServer::bind("127.0.0.1:0", log.clone()).unwrap());
    let dial = server.clone();
    let client = RemoteBroker::connect_with(Box::new(move || dial.connect_in_process())).unwrap();
    let (gate, parked) = channel();
    let mut registry = ServiceRegistry::tracing_for(["s"]);
    registry.register(
        "slow",
        Arc::new(Gated(TraceService::new("slow"), Mutex::new(parked))),
    );
    let mut b = WorkflowBuilder::new("slow");
    b.task("T1", "s").input(Value::str("x"));
    b.task("T2", "slow").after(["T1"]);
    let run = Engine::builder()
        .broker(Arc::new(client))
        .registry(Arc::new(registry))
        .workers(1)
        .run_id(RunId::new("slow").unwrap())
        .build()
        .launch(&b.build().unwrap());
    let gate = gate;
    let status = TopicNamespace::new(RunId::new("slow").unwrap())
        .status()
        .to_owned();
    // T1's Running and Completed, then T2's Running.
    let deadline = Instant::now() + Duration::from_secs(20);
    while log.retained(&status) < 3 {
        assert!(
            Instant::now() < deadline,
            "T2's Running never reached the daemon"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    gate.send(()).unwrap();
    assert!(run.join().completed);
    assert_eq!(log.retained(&status), 4);
    server.stop();
}
