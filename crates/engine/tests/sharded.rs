//! Cross-process agreement: the same workflow executed (a) in one
//! process on `Backend::Scheduler` and (b) as two `Backend::Sharded`
//! engines that share nothing but a TCP broker must produce identical
//! final task states and sink results — and killing one shard mid-run
//! and respawning it must still complete the workflow via the
//! persistent log's replay.
//!
//! The sharded engines here live in one test process (each with its own
//! `RemoteBroker` connection), which exercises every protocol path of
//! true multi-process execution; the CLI test suite runs the same
//! scenario as real OS processes.

use ginflow_core::{
    patterns, Connectivity, ServiceRegistry, SleepService, TaskState, TraceService, Value,
    Workflow, WorkflowBuilder,
};
use ginflow_engine::{Backend, Engine, RunId, RunReport};
use ginflow_mq::LogBroker;
use ginflow_net::{BrokerServer, RemoteBroker};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn services() -> Arc<ServiceRegistry> {
    Arc::new(ServiceRegistry::tracing_for(["s"]))
}

fn final_states(report: &RunReport) -> BTreeMap<String, TaskState> {
    report
        .tasks
        .iter()
        .map(|(name, t)| (name.clone(), t.state))
        .collect()
}

fn sink_results(report: &RunReport, sinks: &[&str]) -> BTreeMap<String, Option<Value>> {
    sinks
        .iter()
        .map(|s| (s.to_string(), report.result_of(s).cloned()))
        .collect()
}

fn sharded_engine(server: &BrokerServer, run_id: &str, shard: u32, of: u32) -> Engine {
    let broker = RemoteBroker::connect(&server.local_addr().to_string()).unwrap();
    Engine::builder()
        .broker(Arc::new(broker))
        .registry(services())
        .workers(1)
        // Every shard process of one run must join the same namespace.
        .run_id(RunId::new(run_id).unwrap())
        .backend(Backend::Sharded { shard, of })
        .build()
}

/// Both shards host at least one agent of the diamond — placement is a
/// deterministic FNV hash of fixed names, so this is a stable property,
/// asserted to keep the test honest if names ever change. Returns how
/// many tasks each shard hosts.
fn assert_both_shards_populated(wf: &Workflow) -> [usize; 2] {
    let mut counts = [0usize; 2];
    for (_, spec) in wf.dag().iter() {
        counts[ginflow_agent::scheduler::process_shard(&spec.name, 2) as usize] += 1;
    }
    assert!(
        counts[0] > 0 && counts[1] > 0,
        "degenerate sharding {counts:?}: pick a different workflow"
    );
    counts
}

#[test]
fn two_tcp_shards_agree_with_single_process() {
    let wf = patterns::diamond(3, 4, Connectivity::Simple, "s").unwrap();
    let hosted = assert_both_shards_populated(&wf);

    // Reference: one process, local broker.
    let reference = Engine::builder()
        .broker(Arc::new(LogBroker::new()) as Arc<dyn ginflow_mq::Broker>)
        .registry(services())
        .workers(1)
        .backend(Backend::Scheduler)
        .build()
        .launch(&wf)
        .join();
    assert!(reference.completed);

    // Distributed: two sharded engines, one TCP broker between them.
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
    let run0 = sharded_engine(&server, "agree", 0, 2).launch(&wf);
    let run1 = sharded_engine(&server, "agree", 1, 2).launch(&wf);
    let results0 = run0.wait(Duration::from_secs(60)).unwrap();
    let results1 = run1.wait(Duration::from_secs(60)).unwrap();
    let report0 = run0.join();
    let report1 = run1.join();
    assert!(report0.completed, "shard 0 observed completion");
    assert!(report1.completed, "shard 1 observed completion");
    assert_eq!(report0.backend, "sharded");

    // Both shards and the single-process reference agree on everything
    // the acceptance criterion names: final task states + sink results.
    assert_eq!(final_states(&report0), final_states(&reference));
    assert_eq!(final_states(&report1), final_states(&reference));
    let reference_sinks = sink_results(&reference, &["out"]);
    assert_eq!(sink_results(&report0, &["out"]), reference_sinks);
    assert_eq!(sink_results(&report1, &["out"]), reference_sinks);
    assert_eq!(results0.get("out"), results1.get("out"));
    assert!(results0.contains_key("out"));

    // Each shard's pool counts the agents it held itself: at least one,
    // and never more than the tasks it hosts.
    for (shard, report) in [&report0, &report1].into_iter().enumerate() {
        assert!(
            (1..=hosted[shard] as u64).contains(&report.resident_peak),
            "shard {shard} held {} agents at once, hosting {}",
            report.resident_peak,
            hosted[shard]
        );
    }
}

#[test]
fn killed_shard_respawns_and_completes_via_replay() {
    // A slow pipeline so there is a mid-run to kill a shard in. Names
    // chosen so the pipeline actually crosses both shards.
    let mut b = WorkflowBuilder::new("cross-shard-pipeline");
    b.task("p0", "slow").input(Value::str("x"));
    for i in 1..6 {
        b.task(format!("p{i}"), "slow")
            .after([format!("p{}", i - 1)]);
    }
    let wf = b.build().unwrap();
    assert_both_shards_populated(&wf);

    let mut registry = ServiceRegistry::new();
    registry.register(
        "slow",
        Arc::new(SleepService::new(
            Duration::from_millis(60),
            TraceService::new("slow"),
        )),
    );
    let registry = Arc::new(registry);
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
    let engine_for = |shard: u32| {
        let broker = RemoteBroker::connect(&server.local_addr().to_string()).unwrap();
        Engine::builder()
            .broker(Arc::new(broker))
            .registry(registry.clone())
            .workers(1)
            // The respawned shard rejoins the same run id — that is
            // what scopes the log it replays to *this* run.
            .run_id(RunId::new("kill-replay").unwrap())
            .backend(Backend::Sharded { shard, of: 2 })
            .build()
    };

    let run0 = engine_for(0).launch(&wf);
    let run1 = engine_for(1).launch(&wf);

    // Kill shard 1 mid-run: teardown loses every agent's local state,
    // exactly like the paper's killed JVM (here: a killed OS process).
    std::thread::sleep(Duration::from_millis(100));
    run1.shutdown();

    // Respawn it. The fresh process replays the persistent log from the
    // beginning — inbox and status — rebuilding the dead agents'
    // state and whatever progress its peers made meanwhile.
    let run1b = engine_for(1).launch(&wf);

    let results0 = run0.wait(Duration::from_secs(60)).unwrap();
    let results1 = run1b.wait(Duration::from_secs(60)).unwrap();
    assert_eq!(results0.get("p5"), results1.get("p5"));
    let report0 = run0.join();
    let report1 = run1b.join();
    assert!(report0.completed);
    assert!(report1.completed);
    assert_eq!(final_states(&report0), final_states(&report1));
    assert_eq!(
        report0.state_of("p5"),
        TaskState::Completed,
        "the sink completed despite the shard kill"
    );
}
