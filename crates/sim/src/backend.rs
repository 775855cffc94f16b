//! The virtual-time [`ExecutionBackend`]: the simulator behind the same
//! unified execution API as the live scheduler.
//!
//! Launching runs the whole discrete-event simulation synchronously —
//! virtual hours complete in wall-clock milliseconds — and feeds its
//! recorded status log, stamped in virtual time, through the *same*
//! [`RunTracker`] the live backends feed. The [`RunHandle`] it returns
//! is that tracker plus a vehicle with nothing left to do: events,
//! states, results, `wait` and the report are the fold of the run's own
//! status log, exactly as on every other backend. A consumer iterating
//! [`RunHandle::events`] cannot tell (ordering- and content-wise)
//! whether the run was real or simulated, which is exactly what makes
//! cross-backend tests meaningful.

use crate::run::{simulate, SimConfig};
use ginflow_agent::engine::{
    ExecutionBackend, RunControl, RunFailure, RunHandle, RunMeta, RunReport, RunTracker,
};
use ginflow_core::Workflow;
use std::sync::Arc;
use std::time::Duration;

/// Virtual-time execution of workflows through the unified API.
#[derive(Clone, Debug, Default)]
pub struct SimBackend {
    /// Simulation parameters (cost model, services, failures, broker
    /// persistence).
    pub config: SimConfig,
    /// Pinned run id for launched runs; `None` (the default) generates
    /// a fresh one per launch, mirroring the live backends. The sim
    /// touches no broker topics — the id only labels handles/reports so
    /// cross-backend comparisons stay uniform.
    pub run_id: Option<ginflow_mq::RunId>,
}

impl SimBackend {
    /// Backend over the given simulation parameters.
    pub fn new(config: SimConfig) -> Self {
        SimBackend {
            config,
            run_id: None,
        }
    }

    /// Pin the run id of every launch (see [`SimBackend::run_id`]).
    pub fn with_run_id(mut self, run_id: Option<ginflow_mq::RunId>) -> Self {
        self.run_id = run_id;
        self
    }
}

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn launch_run(&self, workflow: &Workflow) -> RunHandle {
        let report = simulate(workflow, &self.config);
        let run_id = self
            .run_id
            .clone()
            .unwrap_or_else(ginflow_mq::RunId::generate);
        let tracker = Arc::new(RunTracker::new(RunMeta::of(workflow), run_id));
        for (at, update) in &report.status_log {
            tracker.observe(update, Duration::from_micros(*at));
        }
        // A virtual run that ended without every sink completing (e.g.
        // crashes without a persistent broker) is terminal, stalled; on
        // one that completed this does nothing.
        tracker.fail(RunFailure::Stalled);
        let makespan = Duration::from_micros(report.makespan_us);
        RunHandle::new(tracker, Arc::new(SimRun { makespan }))
    }
}

/// A finished simulated run as a vehicle: there are no agents left to
/// touch — the failure injector runs *inside* the simulation, configured
/// via [`SimConfig::failures`] — and nothing to stop.
struct SimRun {
    makespan: Duration,
}

impl RunControl for SimRun {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn kill(&self, _task: &str) -> bool {
        false
    }

    fn respawn(&self, _task: &str) -> bool {
        false
    }

    fn alive(&self, _task: &str) -> bool {
        false // the virtual run has already ended
    }

    fn incarnation(&self, _task: &str) -> u32 {
        0
    }

    /// Virtual time; the sim drops no message and feeds no registry.
    fn stamp(&self, report: &mut RunReport) {
        report.wall = self.makespan;
    }

    fn stop(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceModel;
    use ginflow_agent::RunEvent;
    use ginflow_core::workflow::WorkflowBuilder;
    use ginflow_core::{patterns, Connectivity, TaskState, Value};

    fn fig2() -> Workflow {
        let mut b = WorkflowBuilder::new("fig2");
        b.task("T1", "s1").input(Value::str("input"));
        b.task("T2", "s2").after(["T1"]);
        b.task("T3", "s3").after(["T1"]);
        b.task("T4", "s4").after(["T2", "T3"]);
        b.build().unwrap()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            services: ServiceModel::constant(100_000),
            ..SimConfig::default()
        }
    }

    #[test]
    fn sim_backend_completes_with_events() {
        let handle = SimBackend::new(quick_config()).launch_run(&fig2());
        let events: Vec<RunEvent> = handle.events().collect();
        assert_eq!(events.last(), Some(&RunEvent::RunCompleted));
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::TaskResult { task, .. } if task == "T4")));
        let report = handle.join();
        assert!(report.completed);
        assert_eq!(report.state_of("T4"), TaskState::Completed);
        assert!(report.wall > Duration::ZERO);
        let t4 = &report.tasks["T4"];
        assert!(t4.started_at.unwrap() < t4.finished_at.unwrap());
    }

    #[test]
    fn stalled_sim_run_is_a_failed_run() {
        use crate::run::FailureSpec;
        let config = SimConfig {
            services: ServiceModel::constant(2 * crate::SECOND),
            failures: Some(FailureSpec { p: 1.0, t_us: 1 }),
            persistent_broker: false,
            ..SimConfig::default()
        };
        let wf = patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap();
        let handle = SimBackend::new(config).launch_run(&wf);
        let events: Vec<RunEvent> = handle.events().collect();
        assert_eq!(
            events.last(),
            Some(&RunEvent::RunFailed {
                reason: RunFailure::Stalled
            })
        );
        assert!(handle.wait(Duration::ZERO).is_err());
        assert!(!handle.join().completed);
    }

    #[test]
    fn simulated_recovery_shows_respawn_events() {
        use crate::run::FailureSpec;
        use crate::CostModel;
        let config = SimConfig {
            cost: CostModel::kafka(),
            services: ServiceModel::constant(2 * crate::SECOND),
            failures: Some(FailureSpec {
                p: 0.5,
                t_us: crate::SECOND,
            }),
            persistent_broker: true,
            seed: 7,
            ..SimConfig::default()
        };
        let wf = patterns::diamond(3, 3, Connectivity::Simple, "s").unwrap();
        let handle = SimBackend::new(config).launch_run(&wf);
        let events: Vec<RunEvent> = handle.events().collect();
        assert_eq!(events.last(), Some(&RunEvent::RunCompleted));
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::AgentRespawned { .. })));
        let report = handle.report();
        assert!(report.respawns > 0);
    }
}
