//! Run-scoped topic namespaces, observed from the engine: one broker —
//! in-process or a standing `BrokerServer` daemon — serves many
//! workflow runs, concurrently and back-to-back, with zero cross-run
//! event leakage and per-run `RunReport` correctness. Also covers what
//! a finished run leaves on a daemon, and in a durable daemon's log.

use ginflow_core::workflow::ReplacementTask;
use ginflow_core::{ServiceRegistry, TaskState, Value, Workflow, WorkflowBuilder};
use ginflow_engine::{Backend, Engine, RunEvent, RunId};
use ginflow_mq::{Broker, DurabilityConfig, FsyncPolicy, LogBroker};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::sync::Arc;

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

/// A fresh scratch directory, removed on drop.
struct TestDir(std::path::PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path =
            std::env::temp_dir().join(format!("ginflow-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TestDir(path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_durable_run_is_two_topics_on_disk() {
    // On a durable log every topic is a directory and a mapped segment.
    // fig5's five agents (standby T2' included) once made six of them;
    // the reopened log recovers two: the run's inbox and its status. A
    // durable log is a daemon's, and a daemon keeps a joined run until it
    // is closed and collected, so the run's log outlives its `join`.
    let dir = TestDir::new("durable-fig5");
    let config = DurabilityConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 4096,
        memory_messages: 16,
    };
    {
        let (log, _) = LogBroker::open(&dir.0, config).unwrap();
        let server = BrokerServer::bind("127.0.0.1:0", Arc::new(log)).unwrap();
        let client = RemoteBroker::connect(&server.local_addr().to_string()).unwrap();
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
        let report = Engine::builder()
            .broker(Arc::new(client))
            .registry(Arc::new(ServiceRegistry::tracing_for([
                "s1", "s2", "s3", "s4", "s2p",
            ])))
            .workers(2)
            .build()
            .launch(&b.build().unwrap())
            .join();
        assert_eq!(
            report.result_of("T4").unwrap(),
            &Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
        );
        server.stop();
    }
    let (_, report) = LogBroker::open(&dir.0, config).unwrap();
    assert_eq!(report.topics, 2);
    // T1 → T2, T3; T2, T3 → T4: four inbox messages, and two status
    // updates per task.
    assert_eq!(report.messages, 4 + 2 * 4);
}

#[test]
fn a_daemon_keeps_a_joined_run_until_it_is_closed_and_collected() {
    // A daemon's run goes when the daemon decides, not when a client
    // joins it: the joined run's inbox and status are listed until the
    // run is closed and collected.
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
    let client = Arc::new(RemoteBroker::connect(&server.local_addr().to_string()).unwrap());
    let report = Engine::builder()
        .broker(client.clone())
        .registry(services())
        .workers(1)
        .run_id(RunId::new("kept").unwrap())
        .build()
        .launch(&tagged_diamond("K", "x"))
        .join();
    assert!(report.completed);
    let runs = client.list_runs().unwrap();
    assert_eq!(runs.len(), 1, "{runs:?}");
    assert_eq!(
        (runs[0].run.as_str(), runs[0].topics),
        ("kept", 2),
        "the joined run's inbox and status"
    );
    assert!(client.close_run("kept").unwrap());
    assert_eq!(client.gc_runs().unwrap(), (1, 2));
    assert!(client.list_runs().unwrap().is_empty());
    server.stop();
}
