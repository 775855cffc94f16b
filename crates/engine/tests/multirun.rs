//! Run-scoped topic namespaces, observed from the engine: one broker —
//! in-process or a standing `BrokerServer` daemon — serves many
//! workflow runs, concurrently and back-to-back, with zero cross-run
//! event leakage and per-run `RunReport` correctness. Also covers what a
//! run's one keyed inbox does with a flood: it is drained where it is
//! delivered, so a bounded queue drops nothing, and a dead agent's key
//! reaches no one.

use ginflow_agent::SaMessage;
use ginflow_core::{
    ServiceRegistry, SleepService, TaskState, TraceService, Value, Workflow, WorkflowBuilder,
};
use ginflow_engine::{Backend, Engine, RunEvent, RunId, TopicNamespace};
use ginflow_mq::{Broker, LogBroker, TransientBroker};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::sync::Arc;
use std::time::Duration;

/// A fig2-shaped diamond whose task names carry `tag`, so any cross-run
/// leakage is visible by name in events and reports.
fn tagged_diamond(tag: &str, input: &str) -> Workflow {
    let mut b = WorkflowBuilder::new(format!("wf-{tag}"));
    b.task(format!("{tag}1"), "s").input(Value::str(input));
    b.task(format!("{tag}2"), "s").after([format!("{tag}1")]);
    b.task(format!("{tag}3"), "s").after([format!("{tag}1")]);
    b.task(format!("{tag}4"), "s")
        .after([format!("{tag}2"), format!("{tag}3")]);
    b.build().unwrap()
}

fn services() -> Arc<ServiceRegistry> {
    Arc::new(ServiceRegistry::tracing_for(["s"]))
}

fn task_names(events: &[RunEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            RunEvent::TaskStateChanged { task, .. }
            | RunEvent::TaskResult { task, .. }
            | RunEvent::AgentRespawned { task, .. } => Some(task.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn two_concurrent_runs_on_one_daemon_never_leak_events() {
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
    let engine = |run: &str| {
        let broker = RemoteBroker::connect(&server.local_addr().to_string()).unwrap();
        Engine::builder()
            .broker(Arc::new(broker))
            .registry(services())
            .workers(2)
            .run_id(RunId::new(run).unwrap())
            .build()
    };

    let wf_a = tagged_diamond("A", "in-a");
    let wf_b = tagged_diamond("B", "in-b");
    let run_a = engine("run-a").launch(&wf_a);
    let run_b = engine("run-b").launch(&wf_b);
    let events_a = run_a.events();
    let events_b = run_b.events();
    let report_a = run_a.join();
    let report_b = run_b.join();

    assert!(report_a.completed && report_b.completed);
    assert_eq!(report_a.run_id, "run-a");
    assert_eq!(report_b.run_id, "run-b");

    // Per-run report correctness: each report holds exactly its own
    // workflow's tasks, all completed, with its own lineage.
    assert_eq!(report_a.tasks.len(), 4);
    assert_eq!(report_b.tasks.len(), 4);
    assert!(report_a.tasks.keys().all(|t| t.starts_with('A')));
    assert!(report_b.tasks.keys().all(|t| t.starts_with('B')));
    assert_eq!(
        report_a.result_of("A4").unwrap(),
        &Value::Str("s(s(s(in-a)),s(s(in-a)))".into())
    );
    assert_eq!(
        report_b.result_of("B4").unwrap(),
        &Value::Str("s(s(s(in-b)),s(s(in-b)))".into())
    );

    // Zero cross-run event leakage, either direction.
    let trace_a: Vec<RunEvent> = events_a.collect();
    let trace_b: Vec<RunEvent> = events_b.collect();
    assert_eq!(trace_a.last(), Some(&RunEvent::RunCompleted));
    assert_eq!(trace_b.last(), Some(&RunEvent::RunCompleted));
    assert!(
        task_names(&trace_a).iter().all(|t| t.starts_with('A')),
        "run A saw foreign events: {trace_a:?}"
    );
    assert!(
        task_names(&trace_b).iter().all(|t| t.starts_with('B')),
        "run B saw foreign events: {trace_b:?}"
    );
}

/// The documented CLI footgun, now fixed: a second *sharded* run against
/// a warm daemon used to replay the first run's retained history (its
/// shards subscribe from the beginning of the log). With run-scoped
/// topics the second run only replays its own namespace — its sink
/// carries the second input, not the first run's result.
#[test]
fn back_to_back_sharded_runs_on_a_warm_daemon_do_not_replay_history() {
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
    let sharded = |run: &str, shard: u32| {
        let broker = RemoteBroker::connect(&server.local_addr().to_string()).unwrap();
        Engine::builder()
            .broker(Arc::new(broker))
            .registry(services())
            .workers(1)
            .run_id(RunId::new(run).unwrap())
            .backend(Backend::Sharded { shard, of: 2 })
            .build()
    };
    // Same task names both times — exactly the collision the namespace
    // must prevent — but different inputs, so replayed history would be
    // visible in the second run's results.
    let launch = |run: &str, input: &str| {
        let wf = tagged_diamond("T", input);
        let r0 = sharded(run, 0).launch(&wf);
        let r1 = sharded(run, 1).launch(&wf);
        let report0 = r0.join();
        let report1 = r1.join();
        assert!(report0.completed, "{run} shard 0");
        assert!(report1.completed, "{run} shard 1");
        report0.result_of("T4").cloned().unwrap()
    };
    assert_eq!(
        launch("first", "one"),
        Value::Str("s(s(s(one)),s(s(one)))".into())
    );
    assert_eq!(
        launch("second", "two"),
        Value::Str("s(s(s(two)),s(s(two)))".into()),
        "the second run must compute from its own input, not replay the first run's log"
    );
}

#[test]
fn concurrent_runs_on_one_in_process_broker_get_distinct_auto_ids() {
    // No daemon, no pinning: two launches against one shared in-process
    // broker isolate themselves with generated ids.
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let engine = Engine::builder()
        .broker(broker)
        .registry(services())
        .workers(2)
        .build();
    let run_a = engine.launch(&tagged_diamond("A", "x"));
    let run_b = engine.launch(&tagged_diamond("B", "y"));
    assert_ne!(run_a.run_id(), run_b.run_id(), "fresh id per launch");
    let report_a = run_a.join();
    let report_b = run_b.join();
    assert!(report_a.completed && report_b.completed);
    assert!(report_a.tasks.keys().all(|t| t.starts_with('A')));
    assert!(report_b.tasks.keys().all(|t| t.starts_with('B')));
}

/// A killed agent's key is flooded through a transient broker whose
/// subscriber queues hold 2 messages. The run's inbox is drained on the
/// thread that delivers it, so its queue never fills: `lagged` — the sum
/// over the run's subscriptions — stays 0. And the flood reaches no
/// incarnation: not the dead one, whose key the demultiplexer drops, and
/// not its replacement, which attaches at the head of a log that keeps
/// nothing.
#[test]
fn a_flood_keyed_to_a_killed_agent_drops_nothing_and_reaches_no_one() {
    let broker = Arc::new(TransientBroker::with_queue_capacity(2));
    let mut registry = ServiceRegistry::new();
    registry.register(
        "slow",
        Arc::new(SleepService::new(
            Duration::from_millis(400),
            TraceService::new("slow"),
        )),
    );
    let mut b = WorkflowBuilder::new("lag");
    b.task("L1", "slow").input(Value::str("x"));
    b.task("L2", "slow").after(["L1"]);
    let wf = b.build().unwrap();

    let engine = Engine::builder()
        .broker(broker.clone() as Arc<dyn Broker>)
        .registry(Arc::new(registry))
        .workers(1)
        .build();
    let run = engine.launch(&wf);

    // Kill L2 while L1 computes, then flood its key with forged results
    // from L1.
    assert!(run.kill("L2"));
    let ns = TopicNamespace::new(RunId::new(run.run_id()).unwrap());
    for i in 0..10 {
        let forged = SaMessage::Result {
            from: "L1".into(),
            value: Value::str(format!("forged-{i}")),
        };
        broker
            .publish(ns.inbox(), Some("L2".into()), forged.encode())
            .unwrap();
    }
    assert_eq!(
        run.report().lagged,
        0,
        "a queue drained at delivery drops nothing"
    );

    assert!(run.respawn("L2"));
    let report = run.join();
    assert!(report.completed);
    assert_eq!(report.tasks["L2"].incarnation, 1);
    assert_eq!(
        report.result_of("L2").unwrap(),
        &Value::Str("slow(slow(x))".into()),
        "L2 computed from L1's result, not from the flood"
    );
    assert_eq!(report.lagged, 0);
    assert_eq!(report.run_id, ns.run_id().as_str());
}

#[test]
fn sim_and_live_reports_both_carry_run_ids() {
    let wf = tagged_diamond("S", "x");
    let pinned = RunId::new("sim-run").unwrap();
    let sim = Engine::builder()
        .backend(Backend::Sim)
        .run_id(pinned)
        .build()
        .launch(&wf);
    assert_eq!(sim.run_id(), "sim-run");
    let report = sim.join();
    assert_eq!(report.run_id, "sim-run");
    assert_eq!(report.lagged, 0);
    assert_eq!(report.state_of("S4"), TaskState::Completed);
}

#[test]
fn a_joined_run_leaves_no_row_in_the_global_metrics_registry() {
    // Tests share the process-global registry, so this matches rows on
    // each run's id rather than counting them.
    let engine = Engine::builder()
        .broker(Arc::new(LogBroker::new()))
        .registry(services())
        .workers(2)
        .build();
    let wf =
        ginflow_core::patterns::diamond(4, 4, ginflow_core::Connectivity::Simple, "s").unwrap();
    assert_eq!(wf.dag().len(), 18);
    for _ in 0..200 {
        let report = engine.launch(&wf).join();
        assert!(report.completed);
        let rows: Vec<_> = ginflow_mq::metrics::global()
            .snapshot()
            .into_iter()
            .filter(|row| row.label == report.run_id)
            .collect();
        assert!(rows.is_empty(), "run {} left {rows:?}", report.run_id);
        assert!(report.resident_peak > 0, "run {}", report.run_id);
    }
}
