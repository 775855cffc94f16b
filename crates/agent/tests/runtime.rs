//! Integration tests of the live runtime: real threads, real brokers,
//! the complete decentralised protocol — normal runs, adaptation and
//! crash/recovery.

use ginflow_agent::{RunOptions, Scheduler};
use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
use ginflow_core::{
    patterns, Connectivity, FailingService, ServiceRegistry, TaskState, Value, Workflow,
};
use ginflow_mq::{Broker, LogBroker};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(20);

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
        "s1", "s2", "s3", "s4", "s2p", "noop",
    ]))
}

#[test]
fn fig2_completes_on_log_broker() {
    let runtime = Scheduler::new(Arc::new(LogBroker::new()), tracing_registry());
    let run = runtime.launch(&fig2());
    let results = run.wait(WAIT).expect("workflow completes");
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
    );
    run.shutdown();
}

#[test]
fn decentralised_matches_centralized_reference() {
    // Both execution paths must agree: the decentralised split of
    // `gw_pass` (see the deviations listed in the `ginflow_hoclflow`
    // crate docs) against the centralized reference.
    let wf = fig2();
    let registry = tracing_registry();
    let centralized = ginflow_hoclflow::run(
        &wf,
        &registry,
        ginflow_hoclflow::CentralizedConfig::default(),
    )
    .unwrap();
    let runtime = Scheduler::new(Arc::new(LogBroker::new()), registry.clone());
    let run = runtime.launch(&wf);
    let results = run.wait(WAIT).expect("workflow completes");
    assert_eq!(Some(&results["T4"]), centralized.result_of("T4"));
    run.shutdown();
}

#[test]
fn adaptation_reroutes_around_failing_service() {
    // §III-C end-to-end on threads: T2's service always fails; T2' takes
    // over transparently.
    let mut registry = ServiceRegistry::tracing_for(["s1", "s3", "s4", "s2p"]);
    registry.register("s2", Arc::new(FailingService));
    let runtime = Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry));
    let run = runtime.launch(&fig5());
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
fn diamond_completes_decentralised() {
    let wf = patterns::diamond(4, 4, Connectivity::Full, "noop").unwrap();
    let runtime = Scheduler::new(Arc::new(LogBroker::new()), tracing_registry());
    let run = runtime.launch(&wf);
    let results = run.wait(WAIT).expect("diamond completes");
    assert!(results.contains_key("out"));
    run.shutdown();
}

#[test]
fn killed_agent_recovers_via_log_replay() {
    // §IV-B: crash T2 before it can run, then respawn it; the replayed
    // inbox rebuilds its state and the workflow completes.
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let runtime = Scheduler::new(broker, tracing_registry());
    let run = runtime.launch(&fig2());

    assert!(run.kill("T2"));
    // Let the crash take effect (agent observes the flag within a poll).
    std::thread::sleep(Duration::from_millis(50));
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
fn duplicate_results_after_recovery_do_not_cascade() {
    // Kill T1 *after* it completed: the respawned T1 re-invokes and
    // re-sends its result; successors must ignore the duplicates (the
    // paper's one-shot-rule argument).
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let runtime = Scheduler::new(broker, tracing_registry());
    let run = runtime.launch(&fig2());
    let results = run.wait(WAIT).expect("first run completes");

    assert!(run.kill("T1") || !run.alive("T1"));
    std::thread::sleep(Duration::from_millis(50));
    run.respawn("T1");
    // Give the replayed incarnation time to re-run and re-send.
    std::thread::sleep(Duration::from_millis(300));
    // The sink's result is unchanged.
    assert_eq!(run.result_of("T4"), Some(results["T4"].clone()));
    run.shutdown();
}

#[test]
fn auto_recovery_restarts_dead_agents() {
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let runtime = Scheduler::new(broker, tracing_registry()).with_options(RunOptions {
        auto_recover: true,
        ..RunOptions::default()
    });
    let run = runtime.launch(&fig2());
    run.kill("T3");
    // Let the crash take effect and the monitor observe the dead thread
    // before measuring the outcome (the monitor scans every 10 ms).
    std::thread::sleep(Duration::from_millis(100));
    let results = run.wait(WAIT).expect("auto recovery completes the run");
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
    );
    assert!(run.incarnation("T3") >= 1, "T3 was respawned");
    run.shutdown();
}

#[test]
fn repeated_crashes_eventually_complete() {
    // "a restarted agent can fail again" — crash T2 a few times in a row.
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let runtime = Scheduler::new(broker, tracing_registry());
    let run = runtime.launch(&fig2());
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
