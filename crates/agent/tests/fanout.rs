//! A fan-out costs a task the same whatever its width: one reaction, one
//! encoding.
//!
//! Counted, not timed. The fork of `patterns::parallel(k)` sends one
//! result to `k` successors; its HOCL applications from `Start` through
//! the service's completion must not grow with `k`, and on a live run
//! the `k` messages it publishes to the run's inbox must be keyed to its
//! successors in order and share one encoded buffer.

use ginflow_agent::{Command, Event, RunOptions, SaCore, SaMessage, Scheduler};
use ginflow_core::{patterns, ServiceRegistry, Value};
use ginflow_hoclflow::agent_programs;
use ginflow_mq::{Broker, LogBroker, RunId, TopicNamespace};
use std::sync::Arc;
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

#[test]
fn a_fan_out_publishes_one_payload_buffer() {
    const K: usize = 8;
    let broker = Arc::new(LogBroker::new());
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
    let log = broker.fetch(ns.inbox(), 0, 0, 100).unwrap();
    // The fork's batch leads the log; then each successor's result for
    // the join.
    assert_eq!(log.len(), 2 * K, "one message per edge");
    let (fork, rest) = log.split_at(K);
    let keys: Vec<&[u8]> = fork.iter().map(|m| m.key.as_deref().unwrap()).collect();
    let expected: Vec<String> = (1..=K).map(|i| format!("p{i}")).collect();
    assert_eq!(
        keys,
        expected.iter().map(|k| k.as_bytes()).collect::<Vec<_>>(),
        "the fork's sends are keyed to its successors, in DST order"
    );
    assert!(rest.iter().all(|m| m.key.as_deref() == Some(&b"join"[..])));
    assert!(
        fork.iter()
            .all(|m| m.payload.as_ptr() == fork[0].payload.as_ptr()),
        "the fork encoded its result more than once"
    );
    run.shutdown();
}
