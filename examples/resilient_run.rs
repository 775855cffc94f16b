//! §IV-B recovery on real threads: run a pipeline over the persistent log
//! broker, crash an agent mid-workflow, and watch a fresh incarnation
//! replay its inbox and finish the job.
//!
//! ```sh
//! cargo run --example resilient_run
//! ```

use ginflow::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A five-stage pipeline with slow middle stages so the crash lands
    // mid-execution.
    let mut b = WorkflowBuilder::new("pipeline");
    b.task("extract", "svc").input(Value::str("dataset"));
    b.task("clean", "slow").after(["extract"]);
    b.task("transform", "slow").after(["clean"]);
    b.task("aggregate", "svc").after(["transform"]);
    b.task("publish", "svc").after(["aggregate"]);
    let wf = b.build().expect("valid pipeline");

    let mut registry = ServiceRegistry::tracing_for(["svc"]);
    registry.register(
        "slow",
        Arc::new(ginflow::core::SleepService::new(
            Duration::from_millis(150),
            TraceService::new("slow"),
        )),
    );

    // The log broker retains every message — recovery depends on it.
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let engine = Engine::builder()
        .broker(broker)
        .registry(Arc::new(registry))
        .build();
    let run = engine.launch(&wf);
    let mut events = run.events();

    // Crash `transform` before it can do its work.
    std::thread::sleep(Duration::from_millis(30));
    assert!(run.kill("transform"));
    std::thread::sleep(Duration::from_millis(60));
    println!(
        "crashed agent `transform` (alive: {})",
        run.alive("transform")
    );

    // Start a replacement: on its first turn it reads every message keyed
    // to it back from the run's inbox log and re-runs them in log order,
    // before anything new.
    assert!(run.respawn("transform"));
    println!(
        "respawned `transform` (incarnation {})",
        run.incarnation("transform")
    );

    let results = run
        .wait(Duration::from_secs(15))
        .expect("the recovered workflow completes");
    println!("publish result: {}", results["publish"]);
    println!("final states:");
    for (task, state) in run.statuses() {
        println!("  {task:<10} {state}");
    }
    let report = run.join();
    assert!(report.completed);
    assert!(report.respawns >= 1, "the replacement incarnation counts");

    // The recovery is visible on the typed event stream too.
    assert!(
        events.any(|e| matches!(
            e,
            RunEvent::AgentRespawned { ref task, incarnation } if task == "transform" && incarnation >= 1
        )),
        "expected an AgentRespawned event for `transform`"
    );
}
