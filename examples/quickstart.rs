//! Quickstart: build the paper's Fig 2 workflow programmatically and run
//! it through the unified `Engine` on both backends — the event-driven
//! scheduler and the virtual-time simulator — plus the centralized HOCL
//! interpreter for reference.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ginflow::prelude::*;
use std::sync::Arc;

fn fig2() -> Workflow {
    let mut b = WorkflowBuilder::new("fig2");
    b.task("T1", "s1").input(Value::str("input"));
    b.task("T2", "s2").after(["T1"]);
    b.task("T3", "s3").after(["T1"]);
    b.task("T4", "s4").after(["T2", "T3"]);
    b.build().expect("fig2 is a valid workflow")
}

fn main() {
    let wf = fig2();
    println!(
        "workflow: {} ({} tasks, {} edges)",
        wf.name(),
        wf.dag().len(),
        wf.dag().edge_count()
    );

    // The services: TraceService makes data lineage visible in results.
    let registry = ServiceRegistry::tracing_for(["s1", "s2", "s3", "s4"]);

    // Reference: one centralized HOCL interpreter reduces the global
    // solution (no agents, no broker).
    let outcome = run_centralized(&wf, &registry, CentralizedConfig::default())
        .expect("centralized run succeeds");
    println!(
        "\n[centralized   ] T4 = {}",
        outcome.result_of("T4").unwrap()
    );

    // One Engine per backend — same builder, same launch, same handle.
    let registry = Arc::new(registry);
    for backend in [Backend::Scheduler, Backend::Sim] {
        let engine = Engine::builder()
            .registry(registry.clone())
            .backend(backend)
            .build();
        let run = engine.launch(&wf);

        // The typed event stream: every task transition, every result,
        // then a terminal RunCompleted/RunFailed.
        let events = run.events();

        // join() drives the run to its end and returns the structured
        // report (per-task states, timings, incarnations).
        let report = run.join();
        let transitions = events
            .filter(|e| matches!(e, RunEvent::TaskStateChanged { .. }))
            .count();
        println!(
            "[{:<15}] completed={} T4={} ({} state transitions, wall {:.3}s)",
            report.backend,
            report.completed,
            report
                .result_of("T4")
                .map(|v| v.to_string())
                .unwrap_or_default(),
            transitions,
            report.wall.as_secs_f64()
        );
        assert!(report.completed);
        assert_eq!(report.state_of("T4"), TaskState::Completed);
    }

    println!("\nsame workflow, two execution vehicles, one API");
}
