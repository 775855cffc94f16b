//! # GinFlow — a decentralised adaptive workflow execution manager
//!
//! Rust reproduction of *GinFlow: A Decentralised Adaptive Workflow
//! Execution Manager* (Rojas Balderrama, Simonin, Tedeschi — IEEE IPDPS
//! 2016). GinFlow executes scientific workflows without a central engine:
//! every task is wrapped by a **service agent** holding a local slice of a
//! shared chemical multiset, coordinating with its peers through messages
//! derived from **HOCL** rewrite rules — and can rewrite the running
//! workflow on-the-fly when a service fails (*adaptation*).
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`hocl`] | the Higher-Order Chemical Language engine |
//! | [`core`] | workflows, DAGs, services, adaptations, JSON format |
//! | [`hoclflow`] | workflow → chemistry compilation, generic/adaptation rules |
//! | [`mq`] | the Kafka-like log broker with push wakeups, its wire protocol and durable store |
//! | [`agent`] | service agents: sans-IO core + event-driven sharded worker-pool scheduler + §IV-B recovery + the unified execution API types ([`agent::engine`]) |
//! | [`engine`] | `Engine::builder()` — the single launch entry point over every backend |
//! | [`sim`] | virtual-time execution with calibrated cost models (an [`ExecutionBackend`](prelude::ExecutionBackend) too) |
//! | [`executor`] | cluster model, SSH/Mesos deployment strategies, live execution through the engine |
//! | [`montage`] | the 118-task Montage-shaped evaluation workload |
//!
//! ## Quickstart
//!
//! One `Engine` launches a workflow on either backend — the
//! event-driven scheduler or the virtual-time simulator — and every
//! launch returns the same [`RunHandle`](prelude::RunHandle): a typed
//! [`RunEvent`](prelude::RunEvent) stream, cancellation/deadlines, and a
//! structured [`RunReport`](prelude::RunReport).
//!
//! ```
//! use ginflow::prelude::*;
//! use std::sync::Arc;
//!
//! // The paper's Fig 2: T1 fans out to T2/T3, which merge into T4.
//! let mut b = WorkflowBuilder::new("fig2");
//! b.task("T1", "s1").input(Value::str("input"));
//! b.task("T2", "s2").after(["T1"]);
//! b.task("T3", "s3").after(["T1"]);
//! b.task("T4", "s4").after(["T2", "T3"]);
//! let wf = b.build().unwrap();
//!
//! // Execute decentralised: one agent per task over the engine's
//! // in-process log, whose topics the run deletes once it is joined.
//! let engine = Engine::builder()
//!     .registry(Arc::new(ServiceRegistry::tracing_for(["s1", "s2", "s3", "s4"])))
//!     .backend(Backend::Scheduler)
//!     .build();
//! let run = engine.launch(&wf);
//!
//! // Watch the run unfold through the typed event stream…
//! let events = run.events();
//!
//! // …and drive it to the end: join() returns the structured report.
//! let report = run.join();
//! assert!(report.completed);
//! assert_eq!(
//!     report.result_of("T4").unwrap(),
//!     &Value::Str("s4(s2(s1(input)),s3(s1(input)))".into())
//! );
//!
//! // Every stream ends with a terminal event.
//! let trace: Vec<RunEvent> = events.collect();
//! assert_eq!(trace.last(), Some(&RunEvent::RunCompleted));
//! ```
//!
//! Swapping `.backend(Backend::Sim)` into the builder re-runs the same
//! workflow in virtual time with the same observable surface;
//! `.deadline(..)` bounds the run, `run.cancel()` tears it down
//! mid-flight without leaking threads.

pub use ginflow_agent as agent;
pub use ginflow_core as core;
pub use ginflow_engine as engine;
pub use ginflow_executor as executor;
pub use ginflow_hocl as hocl;
pub use ginflow_hoclflow as hoclflow;
pub use ginflow_montage as montage;
pub use ginflow_mq as mq;
pub use ginflow_sim as sim;

/// The commonly-needed types in one import.
pub mod prelude {
    pub use ginflow_agent::{RunOptions, SaMessage, Scheduler};
    pub use ginflow_core::workflow::ReplacementTask;
    pub use ginflow_core::{
        patterns, Connectivity, EchoService, FailingService, Service, ServiceError,
        ServiceRegistry, TaskState, TraceService, Value, Workflow, WorkflowBuilder,
    };
    pub use ginflow_engine::{
        Backend, Engine, EventWait, ExecutionBackend, RunEvent, RunEvents, RunFailure, RunHandle,
        RunReport, TaskReport, WaitError,
    };
    pub use ginflow_executor::{deploy_and_simulate, ExecutionSpec, ExecutorKind};
    pub use ginflow_hocl::prelude::*;
    pub use ginflow_hoclflow::{
        agent_programs, compile_centralized, run as run_centralized, CentralizedConfig,
    };
    pub use ginflow_mq::{Broker, BrokerKind, LogBroker};
    pub use ginflow_sim::{simulate, CostModel, FailureSpec, ServiceModel, SimBackend, SimConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let wf = patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap();
        assert_eq!(wf.dag().len(), 6);
        let engine = Engine::builder().backend(Backend::Sim).build();
        assert_eq!(engine.backend_name(), "sim");
    }
}
