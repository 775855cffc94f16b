//! # ginflow-engine — one entry point for every execution vehicle
//!
//! A workflow runs on the event-driven scheduler — in one process or as
//! one shard of several — or in the virtual-time simulator. This crate
//! puts them behind a single façade:
//!
//! ```
//! use ginflow_engine::{Backend, Engine};
//! use ginflow_core::{patterns, Connectivity, ServiceRegistry};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let wf = patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap();
//! let engine = Engine::builder()
//!     .registry(Arc::new(ServiceRegistry::tracing_for(["s"])))
//!     .workers(2)
//!     .backend(Backend::Scheduler)
//!     .build();
//! let run = engine.launch(&wf);
//! let results = run.wait(Duration::from_secs(10)).unwrap();
//! assert!(results.contains_key("out"));
//! run.shutdown();
//! ```
//!
//! Whatever the backend, [`Engine::launch`] returns the same
//! [`RunHandle`]: a typed, ordered [`RunEvent`] stream fed from the
//! shared status topic, first-class cancellation and deadlines, and a
//! structured [`RunReport`] — all read from the run's one record, the
//! [`RunTracker`] every backend feeds, so they mean the same thing on
//! each. The seam between the engine and its vehicles is
//! [`ExecutionBackend`] (defined in `ginflow-agent::engine`); what a
//! vehicle contributes to a launched run beyond feeding the tracker is
//! the narrow [`RunControl`].

pub use ginflow_agent::engine::{
    EventWait, ExecutionBackend, RunControl, RunEvent, RunEvents, RunFailure, RunHandle, RunMeta,
    RunOutcome, RunReport, RunTracker, TaskReport,
};
pub use ginflow_agent::{RunOptions, WaitError};
pub use ginflow_mq::{RunId, TopicNamespace};
pub use ginflow_sim::SimBackend;

use ginflow_agent::Scheduler;
use ginflow_core::{ServiceRegistry, Workflow};
use ginflow_mq::{Broker, BrokerKind};
use ginflow_sim::SimConfig;
use std::sync::Arc;
use std::time::Duration;

/// Which execution vehicle an [`Engine`] drives.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The event-driven, sharded worker-pool scheduler (the default).
    #[default]
    Scheduler,
    /// The virtual-time discrete-event simulator.
    Sim,
    /// One shard of a multi-process execution: this engine runs only
    /// the agents whose FNV name-hash lands in shard `shard` of `of`,
    /// coordinating with the other shards *only* through the shared
    /// broker — point the builder at a `ginflow_net::RemoteBroker` and
    /// launch the same workflow in `of` processes (one per shard). The
    /// status topic is the cross-shard membrane, so every shard's
    /// [`RunHandle`] still observes (and waits on) the whole workflow.
    /// A shard's broker connections all multiplex onto the client's
    /// shared reactor thread.
    Sharded {
        /// This process's shard index (`0..of`).
        shard: u32,
        /// Total shard count.
        of: u32,
    },
}

/// Builder for [`Engine`]. Every knob has a sensible default: transient
/// in-process broker, empty service registry, scheduler backend, worker
/// count = available parallelism, no deadline.
#[derive(Default)]
pub struct EngineBuilder {
    broker: Option<Arc<dyn Broker>>,
    registry: Option<Arc<ServiceRegistry>>,
    options: RunOptions,
    backend: Backend,
    sim: SimConfig,
    deadline: Option<Duration>,
    run_id: Option<RunId>,
}

impl EngineBuilder {
    /// Use this broker instance (shared with other runs if you like).
    pub fn broker(mut self, broker: Arc<dyn Broker>) -> Self {
        self.broker = Some(broker);
        self
    }

    /// Build a fresh broker of the given kind at [`EngineBuilder::build`]
    /// time. For [`Backend::Sim`] this also selects the matching cost
    /// profile and persistence.
    pub fn broker_kind(mut self, kind: BrokerKind) -> Self {
        self.sim.cost = ginflow_sim::CostModel::for_broker(kind);
        self.sim.persistent_broker = kind == BrokerKind::Log;
        self.broker = Some(kind.build());
        self
    }

    /// The service registry live backends invoke tasks against.
    pub fn registry(mut self, registry: Arc<ServiceRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Worker threads of the scheduler backend (0 = available
    /// parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.options.workers = workers;
        self
    }

    /// Automatically respawn dead agents (§IV-B recovery).
    pub fn auto_recover(mut self, on: bool) -> Self {
        self.options.auto_recover = on;
        self
    }

    /// Which execution vehicle to use.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Simulation parameters for [`Backend::Sim`] (ignored by the live
    /// backends).
    pub fn sim_config(mut self, config: SimConfig) -> Self {
        self.sim = config;
        self
    }

    /// Deadline applied to every launched run: [`RunHandle::wait`] and
    /// [`RunHandle::join`] cancel the run (tearing agents down through
    /// the broker) once it passes, yielding a partial [`RunReport`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Pin the run id: every topic of a launched run lives under
    /// `run/<id>/…`, so runs sharing one broker (a standing
    /// `ginflow broker serve` daemon included) never see each other's
    /// messages. Absent, every launch generates a fresh id. Pinning is
    /// **required** for [`Backend::Sharded`] — the N shard processes of
    /// one run must agree on the namespace — and is how a respawned
    /// shard rejoins its run.
    pub fn run_id(mut self, run_id: RunId) -> Self {
        self.run_id = Some(run_id);
        self
    }

    /// Assemble the engine.
    ///
    /// # Panics
    ///
    /// On an invalid [`Backend::Sharded`] spec (`of == 0`,
    /// `shard >= of`, a non-persistent broker — a late-starting
    /// shard can only catch up on its peers' progress by replaying the
    /// log, so sharding over a transient broker would silently lose
    /// cross-shard messages and hang the run — or a missing
    /// [`EngineBuilder::run_id`], without which the shard processes
    /// would each generate a private namespace and never coordinate).
    pub fn build(self) -> Engine {
        let backend: Arc<dyn ExecutionBackend> = match self.backend {
            Backend::Sim => Arc::new(SimBackend::new(self.sim).with_run_id(self.run_id)),
            live => {
                let broker = self.broker.unwrap_or_else(|| BrokerKind::Transient.build());
                let registry = self
                    .registry
                    .unwrap_or_else(|| Arc::new(ServiceRegistry::new()));
                let mut options = self.options;
                options.run_id = self.run_id;
                if let Backend::Sharded { shard, of } = live {
                    assert!(
                        of >= 1 && shard < of,
                        "Backend::Sharded {{ shard: {shard}, of: {of} }}: shard must be < of, of >= 1"
                    );
                    assert!(
                        broker.persistent(),
                        "Backend::Sharded requires a persistent broker shared by every shard \
                         (the log is how a late-starting shard catches up): connect a \
                         ginflow_net::RemoteBroker to a `ginflow broker serve` daemon on the \
                         kafka profile — an in-process broker, persistent or not, is invisible \
                         to the other shard processes"
                    );
                    assert!(
                        options.run_id.is_some(),
                        "Backend::Sharded requires .run_id(..): topics are run-scoped \
                         (run/<id>/…), so every shard process of one run must be built with \
                         the same run id to share a namespace (`ginflow run --shard I/N \
                         --run-id ID`)"
                    );
                    options.shard = Some((shard, of));
                }
                Arc::new(Scheduler::new(broker, registry).with_options(options))
            }
        };
        Engine {
            backend,
            deadline: self.deadline,
        }
    }
}

/// The unified launcher: pick a backend once, then [`Engine::launch`]
/// any number of workflows through the shared [`ExecutionBackend`] seam.
pub struct Engine {
    backend: Arc<dyn ExecutionBackend>,
    deadline: Option<Duration>,
}

impl Engine {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The backend's label ("scheduler", "sharded", "sim", …).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Compile `workflow` and start executing it, returning the unified
    /// [`RunHandle`] (with this engine's deadline attached, if any).
    pub fn launch(&self, workflow: &Workflow) -> RunHandle {
        self.backend
            .launch_run(workflow)
            .with_deadline(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_core::{patterns, Connectivity, TaskState};

    fn engine(backend: Backend) -> Engine {
        Engine::builder()
            .registry(Arc::new(ServiceRegistry::tracing_for(["s"])))
            .workers(2)
            .backend(backend)
            .build()
    }

    #[test]
    fn builder_names_backends() {
        assert_eq!(engine(Backend::Scheduler).backend_name(), "scheduler");
        assert_eq!(engine(Backend::Sim).backend_name(), "sim");
    }

    #[test]
    fn default_backend_is_the_scheduler() {
        assert_eq!(Engine::builder().build().backend_name(), "scheduler");
    }

    #[test]
    fn launch_and_join_produces_a_report() {
        let wf = patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap();
        let run = engine(Backend::Scheduler).launch(&wf);
        let report = run.join();
        assert!(report.completed);
        assert_eq!(report.backend, "scheduler");
        assert_eq!(report.state_of("out"), TaskState::Completed);
        assert_eq!(report.completed_tasks(), wf.dag().len());
    }
}
