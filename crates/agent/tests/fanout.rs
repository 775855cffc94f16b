//! A fan-out costs a task the same whatever its width: one reaction, one
//! encoding.
//!
//! Counted, not timed. The fork of `patterns::parallel(k)` sends one
//! result to `k` successors; its HOCL applications from `Start` through
//! the service's completion must not grow with `k`, and on a live run
//! the `k` messages it hands the broker for the run's inbox must be keyed
//! to its successors in order and share one encoded buffer.

use bytes::Bytes;
use ginflow_agent::{Command, Event, RunOptions, SaCore, SaMessage, Scheduler};
use ginflow_core::{patterns, ServiceRegistry, Value};
use ginflow_hoclflow::agent_programs;
use ginflow_mq::{
    Broker, LogBroker, Message, MqError, Receipt, RunId, SubscribeMode, Subscription,
    TopicNamespace,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The fork of `patterns::parallel(k)`, started and completed: its HOCL
/// applications over both events, and the commands of the completion.
fn fork_of_parallel(k: usize) -> (u64, Vec<Command>) {
    let wf = patterns::parallel(k, "s").unwrap();
    let (programs, plans) = agent_programs(&wf);
    let program = programs.into_iter().find(|p| p.name == "fork").unwrap();
    let mut fork = SaCore::new(program, Arc::new(plans));
    let effect = fork
        .handle(Event::Start)
        .unwrap()
        .into_iter()
        .find_map(|c| match c {
            Command::Invoke { effect, .. } => Some(effect),
            _ => None,
        })
        .expect("the fork invokes on start");
    let commands = fork
        .handle(Event::ServiceCompleted {
            effect,
            result: Ok(Value::str("r")),
        })
        .unwrap();
    (fork.take_stats().applications, commands)
}

#[test]
fn a_fan_out_costs_the_same_reactions_at_10_and_1000_wide() {
    let (applications_10, _) = fork_of_parallel(10);
    let (applications_1000, commands) = fork_of_parallel(1000);
    assert_eq!(
        applications_10, applications_1000,
        "the fork's applications grow with its width"
    );
    // `k` sends of one message, in `DST` order.
    let sends: Vec<(&str, &SaMessage)> = commands
        .iter()
        .filter_map(|c| match c {
            Command::Send { to, message } => Some((to.as_str(), message)),
            _ => None,
        })
        .collect();
    let expected: Vec<String> = (1..=1000).map(|i| format!("p{i}")).collect();
    assert_eq!(
        sends.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
        expected
    );
    let result = SaMessage::Result {
        from: "fork".into(),
        value: Value::str("r"),
    };
    assert!(sends.iter().all(|(_, m)| **m == result));
}

/// A publish batch as the agent handed it over: `(topic, key, payload)`.
type Batch = Vec<(String, Option<Bytes>, Bytes)>;

/// A [`LogBroker`] that keeps every batch handed to `publish_many_nowait`
/// — the payload buffers as the agent encoded them, before the log
/// copies them.
#[derive(Default)]
struct RecordingBroker {
    log: LogBroker,
    batches: Mutex<Vec<Batch>>,
}

impl Broker for RecordingBroker {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        self.log.publish(topic, key, payload)
    }

    fn publish_many_nowait(&self, batch: Batch) -> Result<(), MqError> {
        self.batches.lock().unwrap().push(batch.clone());
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

    fn partitions(&self, topic: &str) -> u32 {
        self.log.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.log.retained(topic)
    }
}

#[test]
fn a_fan_out_publishes_one_payload_buffer() {
    const K: usize = 8;
    let broker = Arc::new(RecordingBroker::default());
    let run_id = RunId::new("fanout").unwrap();
    let runtime = Scheduler::new(
        broker.clone(),
        Arc::new(ServiceRegistry::tracing_for(["s"])),
    )
    .with_options(RunOptions {
        workers: 1,
        run_id: Some(run_id.clone()),
        ..RunOptions::default()
    });
    let run = runtime.launch(&patterns::parallel(K, "s").unwrap());
    run.wait(Duration::from_secs(20))
        .expect("the run completes");
    let ns = TopicNamespace::new(run_id);
    let inbox: Vec<(Option<Bytes>, Bytes)> = broker
        .batches
        .lock()
        .unwrap()
        .iter()
        .flatten()
        .filter(|(topic, ..)| topic == ns.inbox())
        .map(|(_, key, payload)| (key.clone(), payload.clone()))
        .collect();
    // The fork's sends come first; then each successor's result for the
    // join.
    assert_eq!(inbox.len(), 2 * K, "one message per edge");
    let (fork, rest) = inbox.split_at(K);
    let keys: Vec<&[u8]> = fork
        .iter()
        .map(|(key, _)| key.as_deref().unwrap())
        .collect();
    let expected: Vec<String> = (1..=K).map(|i| format!("p{i}")).collect();
    assert_eq!(
        keys,
        expected.iter().map(|k| k.as_bytes()).collect::<Vec<_>>(),
        "the fork's sends are keyed to its successors, in DST order"
    );
    assert!(rest
        .iter()
        .all(|(key, _)| key.as_deref() == Some(&b"join"[..])));
    assert!(
        fork.iter()
            .all(|(_, payload)| payload.as_ptr() == fork[0].1.as_ptr()),
        "the fork encoded its result more than once"
    );
    run.shutdown();
}
