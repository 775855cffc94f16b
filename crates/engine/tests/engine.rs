//! The unified execution API across backends: one `Engine::builder()`
//! entry point, agreeing event streams, deadline enforcement, and the
//! monotonicity property of per-task event streams.

use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
use ginflow_core::{
    patterns, Connectivity, ServiceRegistry, SleepService, TaskState, TraceService, Value, Workflow,
};
use ginflow_engine::{Backend, Engine, RunEvent, WaitError};
use ginflow_mq::BrokerKind;
use ginflow_sim::{CostModel, FailureSpec, ServiceModel, SimConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn fig2() -> Workflow {
    let mut b = WorkflowBuilder::new("fig2");
    b.task("T1", "s1").input(Value::str("input"));
    b.task("T2", "s2").after(["T1"]);
    b.task("T3", "s3").after(["T1"]);
    b.task("T4", "s4").after(["T2", "T3"]);
    b.build().unwrap()
}

fn engine_for(backend: Backend) -> Engine {
    Engine::builder()
        .broker(BrokerKind::Transient.build())
        .registry(Arc::new(ServiceRegistry::tracing_for([
            "s1", "s2", "s3", "s4",
        ])))
        .workers(2)
        .backend(backend)
        .build()
}

/// Fold a run's event stream into the final state per task.
fn final_states(events: impl IntoIterator<Item = RunEvent>) -> HashMap<String, TaskState> {
    let mut states = HashMap::new();
    for event in events {
        if let RunEvent::TaskStateChanged { task, to, .. } = event {
            states.insert(task, to);
        }
    }
    states
}

/// The acceptance check: the same Fig-2 workflow launched through one
/// `Engine::builder()` on both backends, with the `RunEvent` streams
/// agreeing on the final task states — and the reports, which one
/// function builds from one fold on both, agreeing task by task.
#[test]
fn both_backends_agree_on_fig2_final_states() {
    let wf = fig2();
    let mut per_backend = Vec::new();
    for backend in [Backend::Scheduler, Backend::Sim] {
        let run = engine_for(backend).launch(&wf);
        let events: Vec<RunEvent> = run.events().collect();
        assert_eq!(
            events.last(),
            Some(&RunEvent::RunCompleted),
            "{:?} stream must end with RunCompleted",
            run.backend()
        );
        let report = run.join();
        assert!(report.completed, "{} did not complete", report.backend);
        // State, incarnation and whether there is a result, per task
        // (the values differ by design: the live services trace their
        // lineage, the simulator's produce `<task>#out`).
        let tasks: Vec<(String, TaskState, u32, bool)> = report
            .tasks
            .iter()
            .map(|(name, t)| (name.clone(), t.state, t.incarnation, t.result.is_some()))
            .collect();
        for (name, t) in &report.tasks {
            assert!(t.started_at <= t.finished_at, "{name}: {t:?}");
            assert!(t.finished_at <= Some(report.wall), "{name}: {t:?}");
        }
        per_backend.push((report.backend, final_states(events), tasks));
    }
    let (first_name, first, first_tasks) = &per_backend[0];
    for (name, states, tasks) in &per_backend[1..] {
        assert_eq!(
            first, states,
            "event streams of {first_name} and {name} disagree on final states"
        );
        assert_eq!(
            first_tasks, tasks,
            "reports of {first_name} and {name} disagree"
        );
    }
    assert_eq!(first["T4"], TaskState::Completed);
    assert_eq!(first.len(), 4);
    assert_eq!(first_tasks.len(), 4);
    assert!(first_tasks
        .iter()
        .all(|(_, state, inc, result)| (*state, *inc, *result) == (TaskState::Completed, 0, true)));
}

#[test]
fn adaptation_events_agree_between_live_and_sim() {
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
    let wf = b.build().unwrap();

    // Live: the broken service makes T2 fail for real.
    let mut registry = ServiceRegistry::tracing_for(["s1", "s3", "s4", "s2p"]);
    registry.register("s2", Arc::new(ginflow_core::FailingService));
    let live = Engine::builder()
        .registry(Arc::new(registry))
        .workers(2)
        .build()
        .launch(&wf);
    let live_events: Vec<RunEvent> = live.events().collect();
    assert!(live.join().completed);

    // Sim: the scripted failure makes T2 fail virtually.
    let sim = Engine::builder()
        .backend(Backend::Sim)
        .sim_config(SimConfig {
            services: ServiceModel::constant(100_000).fail_first("T2"),
            ..SimConfig::default()
        })
        .build()
        .launch(&wf);
    let sim_events: Vec<RunEvent> = sim.events().collect();
    assert!(sim.join().completed);

    for (name, events) in [("live", &live_events), ("sim", &sim_events)] {
        assert!(
            events.iter().any(|e| matches!(
                e,
                RunEvent::AdaptationFired { adaptation, failed_task }
                    if adaptation == "replace-T2" && failed_task == "T2"
            )),
            "{name}: no AdaptationFired event: {events:?}"
        );
    }
    let live_states = final_states(live_events);
    let sim_states = final_states(sim_events);
    for task in ["T1", "T2", "T3", "T4", "T2'"] {
        assert_eq!(
            live_states.get(task),
            sim_states.get(task),
            "{task} final state disagrees"
        );
    }
    assert_eq!(live_states["T2"], TaskState::Failed);
    assert_eq!(live_states["T2'"], TaskState::Completed);
}

/// Deadline expiry cancels the run and yields a *partial* report.
#[test]
fn deadline_expiry_returns_partial_report() {
    // A slow 6-stage pipeline: ~150 ms per stage, deadline at 400 ms.
    let mut b = WorkflowBuilder::new("slow-pipeline");
    b.task("t0", "slow").input(Value::str("x"));
    for i in 1..6 {
        b.task(format!("t{i}"), "slow")
            .after([format!("t{}", i - 1)]);
    }
    let wf = b.build().unwrap();
    let mut registry = ServiceRegistry::new();
    registry.register(
        "slow",
        Arc::new(SleepService::new(
            Duration::from_millis(150),
            TraceService::new("slow"),
        )),
    );
    let engine = Engine::builder()
        .registry(Arc::new(registry))
        .workers(2)
        .deadline(Duration::from_millis(400))
        .build();

    let run = engine.launch(&wf);
    let events = run.events();
    let report = run.join();

    assert!(report.deadline_expired, "deadline must be recorded");
    assert!(!report.completed);
    assert!(!report.cancelled, "deadline expiry is not a user cancel");
    let done = report.completed_tasks();
    assert!(done >= 1, "the first stages had time to finish");
    assert!(done < 6, "the last stages must have been cut off");
    let trace: Vec<RunEvent> = events.collect();
    assert_eq!(
        trace.last(),
        Some(&RunEvent::RunFailed {
            reason: ginflow_engine::RunFailure::DeadlineExpired
        })
    );
}

/// `wait` is clamped by the run deadline and reports it distinctly.
#[test]
fn wait_reports_deadline_as_deadline_not_timeout() {
    let mut registry = ServiceRegistry::new();
    registry.register(
        "slow",
        Arc::new(SleepService::new(
            Duration::from_millis(300),
            TraceService::new("slow"),
        )),
    );
    let mut b = WorkflowBuilder::new("one-slow");
    b.task("only", "slow").input(Value::str("x"));
    let wf = b.build().unwrap();
    let engine = Engine::builder()
        .registry(Arc::new(registry))
        .workers(1)
        .deadline(Duration::from_millis(50))
        .build();
    let run = engine.launch(&wf);
    match run.wait(Duration::from_secs(10)) {
        Err(WaitError::Deadline { .. }) => {}
        other => panic!("expected WaitError::Deadline, got {other:?}"),
    }
    assert!(run.report().deadline_expired);
}

/// State rank for the monotonicity property: a task may only move
/// forward within an incarnation.
fn rank(state: TaskState) -> u8 {
    match state {
        TaskState::Idle => 0,
        TaskState::Running => 1,
        TaskState::Completed | TaskState::Failed => 2,
    }
}

/// Check the per-task monotonicity property on one event stream:
/// `(incarnation, state rank)` never decreases lexicographically.
fn assert_monotone(events: &[RunEvent]) {
    let mut last: HashMap<&str, (u32, u8)> = HashMap::new();
    for event in events {
        if let RunEvent::TaskStateChanged {
            task,
            to,
            incarnation,
            ..
        } = event
        {
            let current = (*incarnation, rank(*to));
            if let Some(prev) = last.get(task.as_str()) {
                assert!(
                    prev.0 < current.0 || (prev.0 == current.0 && prev.1 <= current.1),
                    "{task}: {prev:?} -> {current:?} regressed in {events:#?}"
                );
            }
            last.insert(task, current);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any diamond workflow under failure injection and
    /// recovery, every task's event stream is monotone — Idle → Running
    /// → Completed/Failed in rank, with non-decreasing incarnations.
    #[test]
    fn run_event_streams_are_monotone_under_recovery(
        seed in 0u64..1000,
        height in 2usize..5,
        width in 2usize..5,
    ) {
        let wf = patterns::diamond(height, width, Connectivity::Simple, "s").unwrap();
        let engine = Engine::builder()
            .backend(Backend::Sim)
            .sim_config(SimConfig {
                cost: CostModel::kafka(),
                services: ServiceModel::constant(2 * ginflow_sim::SECOND),
                failures: Some(FailureSpec { p: 0.4, t_us: ginflow_sim::SECOND }),
                persistent_broker: true,
                seed,
                ..SimConfig::default()
            })
            .build();
        let run = engine.launch(&wf);
        let events: Vec<RunEvent> = run.events().collect();
        prop_assert!(events.last().is_some_and(RunEvent::is_terminal));
        assert_monotone(&events);
    }
}

/// The same property holds on the live scheduler with manual crash +
/// respawn over a persistent broker.
#[test]
fn live_event_stream_is_monotone_across_respawn() {
    let mut registry = ServiceRegistry::tracing_for(["svc"]);
    registry.register(
        "slow",
        Arc::new(SleepService::new(
            Duration::from_millis(100),
            TraceService::new("slow"),
        )),
    );
    // `a` is slow, so killing `b` early catches it parked with an empty
    // inbox: its first-ever status publish then comes from incarnation 1
    // — and `c` cannot complete without it.
    let mut b = WorkflowBuilder::new("pipeline");
    b.task("a", "slow").input(Value::str("in"));
    b.task("b", "svc").after(["a"]);
    b.task("c", "svc").after(["b"]);
    let wf = b.build().unwrap();
    let engine = Engine::builder()
        .broker(BrokerKind::Log.build())
        .registry(Arc::new(registry))
        .workers(2)
        .build();
    let run = engine.launch(&wf);
    let events_sub = run.events();
    std::thread::sleep(Duration::from_millis(20));
    run.kill("b");
    std::thread::sleep(Duration::from_millis(20));
    assert!(run.respawn("b"));
    run.wait(Duration::from_secs(15)).unwrap();
    let report = run.join();
    assert!(report.completed);
    assert!(report.tasks["b"].incarnation >= 1);
    assert_eq!(report.state_of("c"), TaskState::Completed);
    let events: Vec<RunEvent> = events_sub.collect();
    assert_monotone(&events);
    assert!(events
        .iter()
        .any(|e| matches!(e, RunEvent::AgentRespawned { task, .. } if task == "b")));
}
