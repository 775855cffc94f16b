//! The virtual-time [`ExecutionBackend`]: the simulator behind the same
//! unified execution API as the live scheduler.
//!
//! Launching runs the whole discrete-event simulation synchronously —
//! virtual hours complete in wall-clock milliseconds — and wraps the
//! outcome in a [`RunHandle`] whose event stream is derived from the
//! recorded status trace through the *same* [`RunTracker`] the live
//! backends feed. A consumer iterating [`RunHandle::events`] cannot tell
//! (ordering- and content-wise) whether the run was real or simulated,
//! which is exactly what makes cross-backend tests meaningful.

use crate::run::{simulate, SimConfig};
use crate::SimReport;
use ginflow_agent::engine::{
    ExecutionBackend, RunControl, RunEvents, RunFailure, RunHandle, RunMeta, RunOutcome, RunReport,
    RunTracker, TaskReport,
};
use ginflow_agent::WaitError;
use ginflow_core::{TaskState, Value, Workflow};
use std::collections::{BTreeMap, HashMap};
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
        let tracker = RunTracker::new(RunMeta::of(workflow), run_id);
        for (_, update) in &report.status_log {
            tracker.observe(update);
        }
        if tracker.outcome().is_none() {
            // The virtual run ended without every sink completing (e.g.
            // crashes without a persistent broker): terminal, stalled.
            tracker.fail(RunFailure::Stalled);
        }
        RunHandle::new(Arc::new(SimRun::new(report, tracker)))
    }
}

/// A finished simulated run behind the [`RunControl`] surface. All
/// "observations" answer from the recorded trace; fault injection is a
/// no-op (the failure injector runs *inside* the simulation, configured
/// via [`SimConfig::failures`]).
struct SimRun {
    report: SimReport,
    tracker: RunTracker,
    tasks: BTreeMap<String, TaskReport>,
}

impl SimRun {
    fn new(report: SimReport, tracker: RunTracker) -> Self {
        let mut tasks: BTreeMap<String, TaskReport> = tracker
            .meta()
            .tasks
            .iter()
            .map(|n| (n.clone(), TaskReport::default()))
            .collect();
        for (at, update) in &report.status_log {
            // The same fold the live status board applies — stale
            // incarnations and timing marks behave identically.
            tasks
                .entry(update.task.clone())
                .or_default()
                .absorb(update, Duration::from_micros(*at));
        }
        // The kernel's final word wins over the trace (a task can end
        // `Idle`/`Running` without a last publish when the run stalls).
        for (name, state) in &report.states {
            tasks.entry(name.clone()).or_default().state = *state;
        }
        SimRun {
            report,
            tracker,
            tasks,
        }
    }

    fn latest(&self, task: &str) -> Option<&TaskReport> {
        self.tasks.get(task)
    }
}

impl RunControl for SimRun {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn run_id(&self) -> String {
        self.tracker.run_id().as_str().to_owned()
    }

    fn state_of(&self, task: &str) -> Option<TaskState> {
        self.latest(task).map(|t| t.state)
    }

    fn result_of(&self, task: &str) -> Option<Value> {
        self.latest(task).and_then(|t| t.result.clone())
    }

    fn statuses(&self) -> Vec<(String, TaskState)> {
        self.tasks
            .iter()
            .map(|(name, t)| (name.clone(), t.state))
            .collect()
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

    fn incarnation(&self, task: &str) -> u32 {
        self.latest(task).map(|t| t.incarnation).unwrap_or(0)
    }

    fn subscribe(&self) -> RunEvents {
        self.tracker.subscribe()
    }

    fn wait_sinks(&self, _timeout: Duration) -> Result<HashMap<String, Value>, WaitError> {
        if self.report.completed {
            let mut results = HashMap::new();
            for sink in &self.tracker.meta().sinks {
                match self.result_of(sink) {
                    Some(v) => {
                        results.insert(sink.clone(), v);
                    }
                    None => return Err(WaitError::MissingResult { task: sink.clone() }),
                }
            }
            Ok(results)
        } else {
            Err(WaitError::Timeout {
                statuses: self.statuses(),
            })
        }
    }

    fn wait_ended(&self, timeout: Option<Duration>) -> bool {
        self.tracker.wait_ended(timeout)
    }

    fn cancel_with(&self, failure: RunFailure) {
        // Already terminal in virtually every case; `fail` is a no-op
        // then. Kept for API symmetry.
        self.tracker.fail(failure);
    }

    fn stop(&self) {
        self.tracker.close();
    }

    fn report(&self) -> RunReport {
        let outcome = self.tracker.outcome();
        let (adaptations_fired, respawns) = self.tracker.counts();
        RunReport {
            backend: "sim",
            run_id: self.tracker.run_id().as_str().to_owned(),
            completed: self.report.completed,
            cancelled: outcome == Some(RunOutcome::Failed(RunFailure::Cancelled)),
            deadline_expired: outcome == Some(RunOutcome::Failed(RunFailure::DeadlineExpired)),
            wall: Duration::from_micros(self.report.makespan_us),
            adaptations_fired,
            respawns,
            lagged: 0,
            metrics: Vec::new(),
            tasks: self.tasks.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceModel;
    use ginflow_agent::RunEvent;
    use ginflow_core::workflow::WorkflowBuilder;
    use ginflow_core::{patterns, Connectivity};

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
