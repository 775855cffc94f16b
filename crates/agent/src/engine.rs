//! The unified execution API: typed run events, run handles, reports,
//! and the [`ExecutionBackend`] trait every execution vehicle implements.
//!
//! The paper's value proposition is decentralised execution *observed
//! through the shared status topic* (§IV): every service agent publishes
//! its state transitions to one shared topic, and anyone — the user
//! workstation of Fig 1 included — can watch the workflow unfold by
//! subscribing to it. A decentralised run has no central state to keep,
//! only an observer, and the observer exists once: the [`RunTracker`].
//!
//! **One record, one lock, one wake-up.** Every backend feeds the raw
//! status stream through [`RunTracker::observe`], which folds it — under
//! one mutex — into the latest state, incarnation, timing marks and
//! result per task ([`TaskReport::absorb`], the only stale-incarnation
//! rule), the fired adaptations, the outcome, and the ordered, typed
//! [`RunEvent`] history with its live subscribers. Per-task state keeps
//! folding after the run has ended (a straggler's `Completed` still
//! lands in the report); event derivation stops there. The tracker's one
//! condvar is notified when the run ends — terminal event, `fail`,
//! `close` — and at no other time: a thread parked in
//! [`RunHandle::wait`] or [`RunHandle::join`] across a 4000-task run is
//! woken once, not once per status update. The event stream is for
//! whoever wants the events.
//!
//! The pieces:
//!
//! * [`ExecutionBackend`] — "compile this workflow and run it", the one
//!   seam the live scheduler and the virtual-time simulator both
//!   implement.
//! * [`RunHandle`] — a launched run: the [`RunTracker`] beside the
//!   vehicle's [`RunControl`]. Everything observable (`state_of`,
//!   `result_of`, `statuses`, `events`, `wait`, `join`, `report`) is
//!   answered from the tracker; the vehicle is asked only what only it
//!   knows — its label, its agents (`kill` / `respawn` / `alive` /
//!   `incarnation`), its clock and broker-side counters, and how to
//!   stop.
//! * [`RunReport`] — the structured outcome: per-task states, timings and
//!   incarnations, adaptation/recovery counters — assembled in one
//!   function ([`RunTracker::report`]) for every backend, consumed by
//!   the CLI and the benchmarks.
//!
//! Construction of backends lives one level up in `ginflow-engine`
//! (`Engine::builder()`), which depends on both this crate and
//! `ginflow-sim`; the types here are deliberately backend-agnostic.

use crate::message::StatusUpdate;
use crate::runtime::WaitError;
use ginflow_core::{TaskState, Value, Workflow};
use ginflow_hoclflow::{AdaptPlan, AgentProgram};
use ginflow_mq::RunId;
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Why a run ended without completing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RunFailure {
    /// [`RunHandle::cancel`] was called.
    Cancelled,
    /// The run's deadline expired and it was torn down.
    DeadlineExpired,
    /// A sink task failed with no adaptation watching it — the workflow
    /// can no longer produce its results.
    SinkFailed {
        /// The failed sink.
        task: String,
    },
    /// Execution stalled (e.g. simulated crashes without a persistent
    /// broker to replay from).
    Stalled,
}

/// One entry of the typed, ordered run event stream — derived from the
/// shared status topic, identically on every backend.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// A task's observed lifecycle state changed.
    TaskStateChanged {
        /// Task name.
        task: String,
        /// Previous observed state (`None` on first observation).
        from: Option<TaskState>,
        /// New state.
        to: TaskState,
        /// Incarnation that published the update.
        incarnation: u32,
    },
    /// A task produced its result.
    TaskResult {
        /// Task name.
        task: String,
        /// The result value.
        value: Value,
    },
    /// A watched task failed, firing an adaptation (§III-C): standby
    /// replacements are being triggered.
    AdaptationFired {
        /// Adaptation name.
        adaptation: String,
        /// The failure that triggered it.
        failed_task: String,
    },
    /// A fresh agent incarnation took over a task (§IV-B recovery).
    AgentRespawned {
        /// Task name.
        task: String,
        /// The new incarnation number.
        incarnation: u32,
    },
    /// Every sink completed — terminal.
    RunCompleted,
    /// The run ended without completing — terminal.
    RunFailed {
        /// Why.
        reason: RunFailure,
    },
}

impl RunEvent {
    /// Is this a terminal event (the stream closes after it)?
    pub fn is_terminal(&self) -> bool {
        matches!(self, RunEvent::RunCompleted | RunEvent::RunFailed { .. })
    }
}

/// Outcome of [`RunEvents::recv_timeout`].
#[derive(Clone, Debug, PartialEq)]
pub enum EventWait {
    /// An event arrived.
    Event(RunEvent),
    /// Nothing arrived within the timeout; the stream is still open.
    TimedOut,
    /// The stream is closed and fully drained.
    Closed,
}

/// A subscription to a run's event stream. Subscribing replays the full
/// ordered history first, then delivers live — a late subscriber sees
/// exactly what an early one saw. The stream ends (iteration stops,
/// [`RunEvents::recv`] returns `None`) after a terminal event or when
/// the run is torn down.
pub struct RunEvents {
    rx: crossbeam::channel::Receiver<RunEvent>,
}

impl RunEvents {
    /// Block until the next event; `None` once the stream is closed and
    /// drained.
    pub fn recv(&self) -> Option<RunEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll; `None` when nothing is queued right now.
    pub fn try_recv(&self) -> Option<RunEvent> {
        self.rx.try_recv().ok()
    }

    /// Wait up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> EventWait {
        use crossbeam::channel::RecvTimeoutError;
        match self.rx.recv_timeout(timeout) {
            Ok(e) => EventWait::Event(e),
            Err(RecvTimeoutError::Timeout) => EventWait::TimedOut,
            Err(RecvTimeoutError::Disconnected) => EventWait::Closed,
        }
    }
}

impl Iterator for RunEvents {
    type Item = RunEvent;

    fn next(&mut self) -> Option<RunEvent> {
        self.recv()
    }
}

// ---------------------------------------------------------------------
// Workflow metadata + the tracker
// ---------------------------------------------------------------------

/// What the event derivation needs to know about a workflow: every task,
/// the sinks, the standby tasks, and which failures fire which
/// adaptation.
#[derive(Clone, Debug, Default)]
pub struct RunMeta {
    /// Every task name (standby included).
    pub tasks: Vec<String>,
    /// Sink task names (no destinations, not standby).
    pub sinks: Vec<String>,
    /// Standby (replacement) task names.
    pub standby: Vec<String>,
    /// Adaptation `(name, watched task names)` pairs, in table order.
    pub adaptations: Vec<(String, Vec<String>)>,
}

impl RunMeta {
    /// Metadata straight from a workflow definition.
    pub fn of(workflow: &Workflow) -> RunMeta {
        let dag = workflow.dag();
        let mut meta = RunMeta::default();
        for (id, spec) in dag.iter() {
            meta.tasks.push(spec.name.clone());
            if spec.is_standby() {
                meta.standby.push(spec.name.clone());
            } else if dag.successors(id).is_empty() {
                meta.sinks.push(spec.name.clone());
            }
        }
        for a in workflow.adaptations() {
            meta.adaptations.push((
                a.name.clone(),
                a.watched
                    .iter()
                    .map(|&t| dag.name_of(t).to_owned())
                    .collect(),
            ));
        }
        meta
    }

    /// Metadata from compiled agent programs + adaptation plans (the
    /// launch path that never sees the workflow itself).
    pub fn from_programs(programs: &[AgentProgram], plans: &[AdaptPlan]) -> RunMeta {
        RunMeta {
            tasks: programs.iter().map(|p| p.name.clone()).collect(),
            sinks: programs
                .iter()
                .filter(|p| p.is_sink())
                .map(|p| p.name.clone())
                .collect(),
            standby: programs
                .iter()
                .filter(|p| p.standby)
                .map(|p| p.name.clone())
                .collect(),
            adaptations: plans
                .iter()
                .map(|p| (p.name.clone(), p.watched.clone()))
                .collect(),
        }
    }
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// Every sink completed.
    Completed,
    /// Ended without completing.
    Failed(RunFailure),
}

/// Everything observed about one run; [`RunTracker`] keeps it under one
/// lock.
#[derive(Default)]
struct Record {
    /// Latest accepted update per observed task, with its timing marks.
    tasks: HashMap<String, TaskReport>,
    /// Adaptation indices that already fired.
    fired: HashSet<usize>,
    /// Sinks whose latest state is `Completed`.
    sinks_done: usize,
    respawns: u32,
    /// How the run ended, once a terminal event was emitted.
    outcome: Option<RunOutcome>,
    /// The run ended — with an outcome, or torn down without one. No
    /// event is derived or delivered afterwards.
    ended: bool,
    /// Every event emitted, in order: what a late subscriber replays.
    history: Vec<RunEvent>,
    /// Live subscribers; dropped when the run ends, which closes their
    /// streams once drained.
    senders: Vec<crossbeam::channel::Sender<RunEvent>>,
}

impl Record {
    /// Append to the history and deliver to every live subscriber.
    fn emit(&mut self, event: RunEvent) {
        for tx in &self.senders {
            let _ = tx.send(event.clone());
        }
        self.history.push(event);
    }

    /// All observed task states, sorted by task name.
    fn statuses(&self) -> Vec<(String, TaskState)> {
        let mut statuses: Vec<(String, TaskState)> = self
            .tasks
            .iter()
            .map(|(name, t)| (name.clone(), t.state))
            .collect();
        statuses.sort_by(|a, b| a.0.cmp(&b.0));
        statuses
    }
}

/// The run's only record: folds raw [`StatusUpdate`]s into per-task
/// state, counters, the outcome and the typed [`RunEvent`] stream — the
/// single implementation every backend (live scheduler, virtual-time
/// sim) feeds, so streams and reports are comparable across backends.
/// Stale updates from superseded incarnations are dropped
/// ([`TaskReport::absorb`]), so per-task streams are monotone: state
/// rank never regresses within an incarnation and incarnations never
/// decrease.
pub struct RunTracker {
    meta: RunMeta,
    /// `meta.sinks` as a set, and for each watched task the indices of the
    /// adaptations it fires — both built once, so an update costs the same
    /// whether the workflow has two sinks or two thousand.
    sinks: HashSet<String>,
    watchers: HashMap<String, Vec<usize>>,
    run_id: RunId,
    record: Mutex<Record>,
    /// Notified when `record.ended` turns true, and at no other time.
    ended: Condvar,
}

impl RunTracker {
    /// Fresh tracker over a workflow's metadata, for the run named
    /// `run_id` — the namespace key under which the run's status topic
    /// lives, carried here so every report and handle can name it.
    pub fn new(meta: RunMeta, run_id: RunId) -> Self {
        let sinks = meta.sinks.iter().cloned().collect();
        let mut watchers: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, (_, watched)) in meta.adaptations.iter().enumerate() {
            for task in watched {
                watchers.entry(task.clone()).or_default().push(i);
            }
        }
        RunTracker {
            meta,
            sinks,
            watchers,
            run_id,
            record: Mutex::new(Record::default()),
            ended: Condvar::new(),
        }
    }

    /// The workflow metadata the tracker derives against.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// The run this tracker observes.
    pub fn run_id(&self) -> &RunId {
        &self.run_id
    }

    /// Fold one status update in, `at` being its time relative to launch
    /// (wall on live backends, virtual in the sim); derived events fan
    /// out to subscribers. An update from a superseded incarnation
    /// changes nothing. Once the run has ended an update still lands in
    /// the per-task record — a straggler's completion belongs in the
    /// report — but derives no event.
    pub fn observe(&self, update: &StatusUpdate, at: Duration) {
        let mut guard = self.record.lock();
        let r = &mut *guard;
        let (prev, task) = match r.tasks.get_mut(&update.task) {
            Some(task) => (Some((task.state, task.incarnation)), task),
            None => (None, r.tasks.entry(update.task.clone()).or_default()),
        };
        if !task.absorb(update, at) || r.ended {
            return;
        }
        // A first observation at incarnation > 0 is a recovery too:
        // the dead incarnation may never have published anything.
        let prev_incarnation = prev.map_or(0, |(_, incarnation)| incarnation);
        if update.incarnation > prev_incarnation {
            r.respawns += update.incarnation - prev_incarnation;
            r.emit(RunEvent::AgentRespawned {
                task: update.task.clone(),
                incarnation: update.incarnation,
            });
        }
        if prev != Some((update.state, update.incarnation)) {
            r.emit(RunEvent::TaskStateChanged {
                task: update.task.clone(),
                from: prev.map(|(state, _)| state),
                to: update.state,
                incarnation: update.incarnation,
            });
            if let (TaskState::Completed, Some(value)) = (update.state, &update.result) {
                r.emit(RunEvent::TaskResult {
                    task: update.task.clone(),
                    value: value.clone(),
                });
            }
        }
        let watching = self.watchers.get(&update.task);
        if update.state == TaskState::Failed {
            for &i in watching.into_iter().flatten() {
                if r.fired.insert(i) {
                    r.emit(RunEvent::AdaptationFired {
                        adaptation: self.meta.adaptations[i].0.clone(),
                        failed_task: update.task.clone(),
                    });
                }
            }
        }
        if !self.sinks.contains(&update.task) {
            return;
        }
        let completed = |state| usize::from(state == TaskState::Completed);
        r.sinks_done += completed(update.state);
        r.sinks_done -= prev.map_or(0, |(state, _)| completed(state));
        if update.state == TaskState::Completed && r.sinks_done == self.sinks.len() {
            self.end(guard, Some(RunOutcome::Completed));
        } else if update.state == TaskState::Failed && watching.is_none() {
            let task = update.task.clone();
            self.end(
                guard,
                Some(RunOutcome::Failed(RunFailure::SinkFailed { task })),
            );
        }
    }

    /// Mark the run failed (cancel, deadline, stall) and emit the
    /// terminal event. Returns `false` (and does nothing) when the run
    /// already ended.
    pub fn fail(&self, failure: RunFailure) -> bool {
        self.end(self.record.lock(), Some(RunOutcome::Failed(failure)))
    }

    /// End the run without an outcome: plain teardown of a workflow that
    /// is still running. A no-op on a run that already ended.
    pub fn close(&self) {
        self.end(self.record.lock(), None);
    }

    /// The one way a run ends, once (`false`: it had ended before): emit
    /// `outcome`'s terminal event (if any), close the live streams — the
    /// history stays replayable — and release whoever is parked in
    /// [`RunTracker::wait_ended`]. The terminal event is in the history
    /// before any waiter wakes, and the lock is free by the time one
    /// does.
    fn end(
        &self,
        mut record: parking_lot::MutexGuard<'_, Record>,
        outcome: Option<RunOutcome>,
    ) -> bool {
        if record.ended {
            return false;
        }
        match &outcome {
            Some(RunOutcome::Completed) => record.emit(RunEvent::RunCompleted),
            Some(RunOutcome::Failed(reason)) => record.emit(RunEvent::RunFailed {
                reason: reason.clone(),
            }),
            None => {}
        }
        record.outcome = outcome;
        record.ended = true;
        record.senders.clear();
        drop(record);
        self.ended.notify_all();
        true
    }

    /// Park until the run has ended — a terminal event was derived, the
    /// run was failed, or it was torn down — for at most `timeout`
    /// (`None`: no bound). `false` means the timeout passed first. The
    /// wait costs the caller one wake-up however many events the run
    /// produces; it subscribes to nothing.
    pub fn wait_ended(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut record = self.record.lock();
        while !record.ended {
            match deadline {
                None => self.ended.wait(&mut record),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    self.ended.wait_for(&mut record, deadline - now);
                }
            }
        }
        true
    }

    /// Subscribe: full ordered history, then live (if the run has not
    /// ended). Replay and registration happen under the lock `observe`
    /// emits under, so no event can fall between them.
    pub fn subscribe(&self) -> RunEvents {
        let mut record = self.record.lock();
        let (tx, rx) = crossbeam::channel::unbounded();
        for event in &record.history {
            let _ = tx.send(event.clone());
        }
        if !record.ended {
            record.senders.push(tx);
        }
        RunEvents { rx }
    }

    /// The outcome, once terminal.
    pub fn outcome(&self) -> Option<RunOutcome> {
        self.record.lock().outcome.clone()
    }

    /// Latest observed state of a task.
    pub fn state_of(&self, task: &str) -> Option<TaskState> {
        self.record.lock().tasks.get(task).map(|t| t.state)
    }

    /// Latest observed result of a task.
    pub fn result_of(&self, task: &str) -> Option<Value> {
        let record = self.record.lock();
        record.tasks.get(task).and_then(|t| t.result.clone())
    }

    /// Snapshot of all observed task states, sorted by task name.
    pub fn statuses(&self) -> Vec<(String, TaskState)> {
        self.record.lock().statuses()
    }

    /// What a wait on the *ended* run yields: every sink's result when
    /// all of them completed — which is what [`RunEvent::RunCompleted`]
    /// means — and otherwise how the run ended instead. A sink that
    /// completed without publishing a result is an error, not a silent
    /// omission.
    fn sink_results(&self) -> Result<HashMap<String, Value>, WaitError> {
        let record = self.record.lock();
        let mut results = HashMap::with_capacity(self.meta.sinks.len());
        for sink in &self.meta.sinks {
            let task = record.tasks.get(sink);
            let Some(task) = task.filter(|t| t.state == TaskState::Completed) else {
                let statuses = record.statuses();
                return Err(match record.outcome.clone() {
                    Some(RunOutcome::Failed(RunFailure::Cancelled)) | None => WaitError::Cancelled,
                    Some(RunOutcome::Failed(RunFailure::DeadlineExpired)) => {
                        WaitError::Deadline { statuses }
                    }
                    Some(RunOutcome::Failed(failure)) => WaitError::Failed(failure),
                    // The run completed and a sink has since been
                    // respawned: it is re-running, not done.
                    Some(RunOutcome::Completed) => WaitError::Timeout { statuses },
                });
            };
            let Some(value) = &task.result else {
                return Err(WaitError::MissingResult { task: sink.clone() });
            };
            results.insert(sink.clone(), value.clone());
        }
        Ok(results)
    }

    /// The one place a [`RunReport`] is assembled, for every backend:
    /// the fold of the status stream so far (partial while the run
    /// executes). `wall`, `lagged` and `metrics` are the vehicle's to
    /// fill in ([`RunControl::stamp`]).
    pub fn report(&self, backend: &'static str) -> RunReport {
        let record = self.record.lock();
        // Seeded from the metadata so never-observed tasks (an
        // untriggered standby) appear as `Idle`.
        let mut tasks: BTreeMap<String, TaskReport> = self
            .meta
            .tasks
            .iter()
            .map(|name| (name.clone(), TaskReport::default()))
            .collect();
        for (name, task) in &record.tasks {
            tasks.insert(name.clone(), task.clone());
        }
        // Once the run has its outcome the observed makespan is the last
        // task transition; until then the clock is the vehicle's.
        let wall = match record.outcome {
            Some(_) => tasks.values().filter_map(|t| t.finished_at).max(),
            None => None,
        }
        .unwrap_or_default();
        let failed_with = |failure| record.outcome == Some(RunOutcome::Failed(failure));
        RunReport {
            backend,
            run_id: self.run_id.as_str().to_owned(),
            completed: record.outcome == Some(RunOutcome::Completed),
            cancelled: failed_with(RunFailure::Cancelled),
            deadline_expired: failed_with(RunFailure::DeadlineExpired),
            wall,
            adaptations_fired: record.fired.len() as u32,
            respawns: record.respawns,
            lagged: 0,
            metrics: Vec::new(),
            tasks,
        }
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Per-task slice of a [`RunReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct TaskReport {
    /// Final observed state (`Idle` when never observed — e.g. an
    /// untriggered standby task).
    pub state: TaskState,
    /// Latest incarnation observed (0 = the first agent).
    pub incarnation: u32,
    /// When the task was first observed `Running`, relative to launch.
    pub started_at: Option<Duration>,
    /// When it was last observed `Completed`/`Failed`, relative to
    /// launch.
    pub finished_at: Option<Duration>,
    /// The produced result, if any.
    pub result: Option<Value>,
}

impl Default for TaskReport {
    fn default() -> Self {
        TaskReport {
            state: TaskState::Idle,
            incarnation: 0,
            started_at: None,
            finished_at: None,
            result: None,
        }
    }
}

impl TaskReport {
    /// Fold one status update in, `at` being the update's time relative
    /// to launch (wall on live backends, virtual in the sim). The single
    /// definition of per-task observation semantics — stale updates from
    /// a superseded incarnation return `false` and change nothing;
    /// `started_at` is the first `Running`, `finished_at` the last
    /// `Completed`/`Failed`.
    pub fn absorb(&mut self, update: &StatusUpdate, at: Duration) -> bool {
        if update.incarnation < self.incarnation {
            return false;
        }
        self.incarnation = update.incarnation;
        self.state = update.state;
        self.result = update.result.clone();
        match update.state {
            TaskState::Running if self.started_at.is_none() => self.started_at = Some(at),
            TaskState::Completed | TaskState::Failed => self.finished_at = Some(at),
            _ => {}
        }
        true
    }
}

/// The structured outcome of a run — available mid-flight (partial) and
/// after completion, cancellation or deadline expiry.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Which backend executed the run.
    pub backend: &'static str,
    /// The run's id — the namespace key of every topic the run used
    /// (`run/<id>/…`); what `ginflow broker runs` lists on a shared
    /// daemon.
    pub run_id: String,
    /// Did every sink complete?
    pub completed: bool,
    /// Was the run cancelled via [`RunHandle::cancel`]?
    pub cancelled: bool,
    /// Did the run's deadline expire?
    pub deadline_expired: bool,
    /// Launch-to-now (or launch-to-terminal) duration. Virtual time on
    /// the sim backend.
    pub wall: Duration,
    /// Adaptations fired.
    pub adaptations_fired: u32,
    /// Agent respawns observed (§IV-B recoveries).
    pub respawns: u32,
    /// Messages this run's broker subscriptions dropped to their
    /// bounded-queue (drop-oldest) policy — see
    /// [`ginflow_mq::Subscription::lagged`]. Non-zero means a consumer
    /// stalled long enough to lose messages: defined behaviour on the
    /// transient (at-most-once) profile, but observable here instead of
    /// silent. Always 0 on unbounded (persistent) subscriptions and on
    /// the sim backend.
    pub lagged: u64,
    /// Final snapshot of this run's slice of the process-global metrics
    /// registry (`(metric name, value)` rows — see
    /// [`ginflow_mq::metrics::Metrics::snapshot_run`]): per-run publish
    /// counts and bytes, lag drops and topic gauges, collected at
    /// report time. Empty on backends that don't feed the registry
    /// (sim).
    pub metrics: Vec<(String, u64)>,
    /// Per-task detail, keyed by task name (every task of the workflow,
    /// observed or not).
    pub tasks: BTreeMap<String, TaskReport>,
}

impl RunReport {
    /// A task's result, if it produced one.
    pub fn result_of(&self, task: &str) -> Option<&Value> {
        self.tasks.get(task).and_then(|t| t.result.as_ref())
    }

    /// A task's final observed state (`Idle` for unknown tasks).
    pub fn state_of(&self, task: &str) -> TaskState {
        self.tasks
            .get(task)
            .map(|t| t.state)
            .unwrap_or(TaskState::Idle)
    }

    /// How many tasks completed.
    pub fn completed_tasks(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| t.state == TaskState::Completed)
            .count()
    }
}

// ---------------------------------------------------------------------
// The handle + backend seam
// ---------------------------------------------------------------------

/// What only the execution vehicle knows about a launched run.
/// Everything observable is the [`RunTracker`]'s to answer —
/// [`RunHandle`] holds both — so this is the vehicle's label, its
/// agents, its clock and counters, and its teardown. Object-safe on
/// purpose: the scheduler's worker pool and the simulator's finished
/// run both live behind it.
pub trait RunControl: Send + Sync {
    /// Backend label ("scheduler", "sharded", "sim", …).
    fn backend(&self) -> &'static str;
    /// Crash a task's agent (fault injection). `false` when unsupported
    /// or the agent is already gone.
    fn kill(&self, task: &str) -> bool;
    /// Start a replacement incarnation (§IV-B). `false` when
    /// unsupported.
    fn respawn(&self, task: &str) -> bool;
    /// Is the task's agent alive?
    fn alive(&self, task: &str) -> bool;
    /// Incarnation of the task's agent this vehicle hosts (0 when it
    /// hosts none) — possibly ahead of the status stream: a fresh
    /// incarnation exists before its first publish.
    fn incarnation(&self, task: &str) -> u32;
    /// Fill in what the status stream cannot tell a report: `wall`
    /// (which arrives as the last task transition of a run that has its
    /// outcome, and zero while it is still running — a live vehicle
    /// puts its clock there), `lagged` and `metrics`.
    fn stamp(&self, report: &mut RunReport);
    /// Tear the vehicle down (agents observe the shutdown flag between
    /// events; worker threads are joined; nothing is published).
    /// Idempotent.
    fn stop(&self);
}

/// A launched workflow, whatever backend executes it: observation, a
/// typed event stream, fault injection, cancellation and deadline
/// enforcement. Observation reads the run's [`RunTracker`]; only fault
/// injection and teardown reach the vehicle.
pub struct RunHandle {
    tracker: Arc<RunTracker>,
    control: Arc<dyn RunControl>,
    deadline: Option<Instant>,
}

impl RunHandle {
    /// A run: the tracker the vehicle feeds, and the vehicle.
    pub fn new(tracker: Arc<RunTracker>, control: Arc<dyn RunControl>) -> Self {
        RunHandle {
            tracker,
            control,
            deadline: None,
        }
    }

    /// Attach an absolute deadline: [`RunHandle::wait`] and
    /// [`RunHandle::join`] cancel the run when it passes.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline.map(|d| Instant::now() + d);
        self
    }

    /// Which backend is executing this run.
    pub fn backend(&self) -> &'static str {
        self.control.backend()
    }

    /// The run's id: the key of the topic namespace (`run/<id>/…`) the
    /// run coordinates under. Auto-generated at launch unless pinned
    /// (e.g. `Engine::builder().run_id(..)`, `ginflow run --run-id`).
    pub fn run_id(&self) -> String {
        self.tracker.run_id().as_str().to_owned()
    }

    /// Subscribe to the typed run event stream (full history replayed
    /// first, then live).
    pub fn events(&self) -> RunEvents {
        self.tracker.subscribe()
    }

    /// Latest observed state of a task.
    pub fn state_of(&self, task: &str) -> Option<TaskState> {
        self.tracker.state_of(task)
    }

    /// Latest observed result of a task.
    pub fn result_of(&self, task: &str) -> Option<Value> {
        self.tracker.result_of(task)
    }

    /// Snapshot of all observed task states, sorted by task name.
    pub fn statuses(&self) -> Vec<(String, TaskState)> {
        self.tracker.statuses()
    }

    /// Crash a task's agent (fault injection).
    pub fn kill(&self, task: &str) -> bool {
        self.control.kill(task)
    }

    /// Start a replacement incarnation for a task (§IV-B recovery).
    pub fn respawn(&self, task: &str) -> bool {
        self.control.respawn(task)
    }

    /// Is the task's agent alive?
    pub fn alive(&self, task: &str) -> bool {
        self.control.alive(task)
    }

    /// Current incarnation number of a task's agent: the vehicle's own
    /// agent, or — for a task it does not host (another shard's, or any
    /// task of a finished simulation) — the latest one observed.
    pub fn incarnation(&self, task: &str) -> u32 {
        let record = self.tracker.record.lock();
        let observed = record.tasks.get(task).map_or(0, |t| t.incarnation);
        drop(record);
        self.control.incarnation(task).max(observed)
    }

    /// Cancel the run: emits [`RunEvent::RunFailed`] with
    /// [`RunFailure::Cancelled`], tears every agent down, and joins all
    /// worker threads before returning — no thread outlives this call.
    pub fn cancel(&self) {
        self.cancel_with(RunFailure::Cancelled);
    }

    /// Block until the run has ended, up to `timeout` (clamped by the
    /// run deadline, which cancels the run on expiry), and return every
    /// sink's result — or why there is none: the run was cancelled or
    /// torn down ([`WaitError::Cancelled`]), its deadline expired
    /// ([`WaitError::Deadline`]), or it failed ([`WaitError::Failed`]).
    /// A failed run is reported the moment it fails, not when `timeout`
    /// runs out.
    pub fn wait(&self, timeout: Duration) -> Result<HashMap<String, Value>, WaitError> {
        let (effective, deadline_gates) = match self.remaining() {
            Some(left) if left < timeout => (left, true),
            _ => (timeout, false),
        };
        if self.tracker.wait_ended(Some(effective)) {
            return self.tracker.sink_results();
        }
        let statuses = self.tracker.statuses();
        if deadline_gates {
            self.cancel_with(RunFailure::DeadlineExpired);
            Err(WaitError::Deadline { statuses })
        } else {
            Err(WaitError::Timeout { statuses })
        }
    }

    /// Drive the run to its end: park until it ended (or the deadline,
    /// which cancels with [`RunFailure::DeadlineExpired`]), tear the run
    /// down, and return the final [`RunReport`] — partial when cancelled
    /// or expired. The wait is on the run's end itself
    /// ([`RunTracker::wait_ended`]), not on its event stream: joining
    /// subscribes to nothing and wakes once.
    pub fn join(self) -> RunReport {
        if !self.tracker.wait_ended(self.remaining()) {
            self.cancel_with(RunFailure::DeadlineExpired);
        }
        let report = self.report();
        self.stop();
        report
    }

    /// Structured snapshot of the run so far (partial while executing).
    pub fn report(&self) -> RunReport {
        let mut report = self.tracker.report(self.control.backend());
        self.control.stamp(&mut report);
        report
    }

    /// Tear the run down without marking it failed.
    pub fn shutdown(self) {
        self.stop();
    }

    /// Mark the run failed with `failure` — the terminal event is out
    /// and every waiter released first — then tear everything down.
    fn cancel_with(&self, failure: RunFailure) {
        self.tracker.fail(failure);
        self.stop();
    }

    /// Stop the vehicle, then end the run if nothing ended it before.
    /// Idempotent.
    fn stop(&self) {
        self.control.stop();
        self.tracker.close();
    }

    fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// An execution vehicle: compiles a workflow and runs it, returning the
/// unified [`RunHandle`]. Implemented by the event-driven scheduler
/// (in this crate) and the virtual-time simulator (`ginflow-sim`);
/// `ginflow-engine` selects between them behind `Engine::builder()`.
pub trait ExecutionBackend: Send + Sync {
    /// Backend label for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Compile `workflow` and start executing it.
    fn launch_run(&self, workflow: &Workflow) -> RunHandle;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(task: &str, state: TaskState, incarnation: u32) -> StatusUpdate {
        StatusUpdate {
            task: task.into(),
            state,
            result: (state == TaskState::Completed).then(|| Value::str("out")),
            incarnation,
        }
    }

    /// When an update was observed, where the test does not care.
    const AT: Duration = Duration::from_millis(7);

    fn meta() -> RunMeta {
        RunMeta {
            tasks: vec!["a".into(), "b".into(), "b'".into()],
            sinks: vec!["b".into()],
            standby: vec!["b'".into()],
            adaptations: vec![("replace-a".into(), vec!["a".into()])],
        }
    }

    #[test]
    fn tracker_derives_ordered_events() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        let events = tracker.subscribe();
        tracker.observe(&update("a", TaskState::Running, 0), AT);
        tracker.observe(&update("a", TaskState::Completed, 0), AT);
        tracker.observe(&update("b", TaskState::Running, 0), AT);
        tracker.observe(&update("b", TaskState::Completed, 0), AT);
        let collected: Vec<RunEvent> = events.collect();
        assert_eq!(
            collected.last(),
            Some(&RunEvent::RunCompleted),
            "{collected:?}"
        );
        assert_eq!(
            collected
                .iter()
                .filter(|e| matches!(e, RunEvent::TaskResult { .. }))
                .count(),
            2
        );
        assert_eq!(tracker.outcome(), Some(RunOutcome::Completed));
    }

    #[test]
    fn late_subscriber_replays_history() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        tracker.observe(&update("a", TaskState::Running, 0), AT);
        tracker.observe(&update("b", TaskState::Completed, 0), AT);
        let replayed: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(replayed.last(), Some(&RunEvent::RunCompleted));
        assert!(replayed.len() >= 3);
    }

    #[test]
    fn adaptation_failure_and_respawn_events() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        tracker.observe(&update("a", TaskState::Running, 0), AT);
        tracker.observe(&update("a", TaskState::Failed, 0), AT);
        tracker.observe(&update("a", TaskState::Running, 1), AT);
        let events: Vec<RunEvent> = {
            let sub = tracker.subscribe();
            std::iter::from_fn(|| sub.try_recv()).collect()
        };
        assert!(events.iter().any(|e| matches!(
            e,
            RunEvent::AdaptationFired { adaptation, .. } if adaptation == "replace-a"
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::AgentRespawned { incarnation: 1, .. })));
        let report = tracker.report("test");
        assert_eq!((report.adaptations_fired, report.respawns), (1, 1));
    }

    #[test]
    fn stale_incarnation_updates_are_dropped() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        // First-ever observation at incarnation 1: the dead incarnation
        // 0 never published, which still counts as one recovery.
        tracker.observe(&update("a", TaskState::Running, 1), AT);
        tracker.observe(&update("a", TaskState::Completed, 0), AT); // ghost
        let events: Vec<RunEvent> = {
            let sub = tracker.subscribe();
            std::iter::from_fn(|| sub.try_recv()).collect()
        };
        assert_eq!(
            events,
            vec![
                RunEvent::AgentRespawned {
                    task: "a".into(),
                    incarnation: 1
                },
                RunEvent::TaskStateChanged {
                    task: "a".into(),
                    from: None,
                    to: TaskState::Running,
                    incarnation: 1
                },
            ],
            "the ghost update must contribute nothing"
        );
    }

    #[test]
    fn unwatched_sink_failure_is_terminal() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        tracker.observe(&update("b", TaskState::Failed, 0), AT);
        assert_eq!(
            tracker.outcome(),
            Some(RunOutcome::Failed(RunFailure::SinkFailed {
                task: "b".into()
            }))
        );
    }

    #[test]
    fn two_thousand_sinks_complete_the_run_exactly_once() {
        let wf = ginflow_core::patterns::split(2000, "s").unwrap();
        let meta = RunMeta::of(&wf);
        assert_eq!(meta.sinks.len(), 2000);
        let sinks = meta.sinks.clone();
        let tracker = RunTracker::new(meta, RunId::generate());
        let events = tracker.subscribe();
        tracker.observe(&update("src", TaskState::Completed, 0), AT);
        for (done, sink) in sinks.iter().enumerate() {
            assert_eq!(tracker.outcome(), None, "after {done} sinks");
            assert_eq!(tracker.record.lock().sinks_done, done);
            tracker.observe(&update(sink, TaskState::Running, 0), AT);
            tracker.observe(&update(sink, TaskState::Completed, 0), AT);
            // A repeated completion is not a second sink.
            tracker.observe(&update(sink, TaskState::Completed, 0), AT);
        }
        assert_eq!(tracker.outcome(), Some(RunOutcome::Completed));
        assert_eq!(tracker.record.lock().sinks_done, 2000);
        let completed: Vec<RunEvent> = events
            .filter(|e| matches!(e, RunEvent::RunCompleted))
            .collect();
        assert_eq!(completed, vec![RunEvent::RunCompleted]);
    }

    #[test]
    fn fail_is_terminal_and_idempotent() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        assert!(tracker.fail(RunFailure::Cancelled));
        assert!(!tracker.fail(RunFailure::DeadlineExpired));
        tracker.observe(&update("b", TaskState::Completed, 0), AT); // no event
        let events: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(
            events,
            vec![RunEvent::RunFailed {
                reason: RunFailure::Cancelled
            }]
        );
        assert_eq!(
            tracker.outcome(),
            Some(RunOutcome::Failed(RunFailure::Cancelled))
        );
    }

    #[test]
    fn an_update_after_the_terminal_event_lands_in_the_report_and_derives_no_event() {
        // The sink completes while `a` is still running: the run has its
        // outcome, and `a`'s own completion is yet to arrive.
        let tracker = RunTracker::new(meta(), RunId::generate());
        let live = tracker.subscribe();
        tracker.observe(&update("a", TaskState::Running, 0), AT);
        tracker.observe(&update("b", TaskState::Completed, 0), AT);
        let history: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(history.last(), Some(&RunEvent::RunCompleted));
        assert_eq!(tracker.report("test").completed_tasks(), 1);

        let late = Duration::from_millis(9);
        tracker.observe(&update("a", TaskState::Completed, 0), late);
        let report = tracker.report("test");
        assert!(report.completed);
        assert_eq!(report.completed_tasks(), 2, "the straggler is counted");
        assert_eq!(report.tasks["a"].finished_at, Some(late));
        assert_eq!(report.result_of("a"), Some(&Value::str("out")));
        assert_eq!(tracker.state_of("a"), Some(TaskState::Completed));
        // The stale-incarnation rule still applies afterwards.
        tracker.observe(&update("a", TaskState::Running, 1), late);
        tracker.observe(&update("a", TaskState::Failed, 0), late);
        assert_eq!(tracker.report("test").tasks["a"].incarnation, 1);
        assert_eq!(tracker.state_of("a"), Some(TaskState::Running));
        // None of it is an event, for the live subscriber or a late one.
        assert_eq!(live.collect::<Vec<_>>(), history);
        assert_eq!(tracker.subscribe().collect::<Vec<_>>(), history);
        assert_eq!(tracker.report("test").respawns, 0);
    }

    #[test]
    fn wait_on_an_ended_run_says_how_it_ended() {
        let ended = |end: &dyn Fn(&RunTracker)| {
            let tracker = Arc::new(RunTracker::new(meta(), RunId::generate()));
            tracker.observe(&update("a", TaskState::Completed, 0), AT);
            end(&tracker);
            // Far longer than the test may take: every answer is at once.
            RunHandle::new(tracker, Arc::new(NoAgents)).wait(Duration::from_secs(600))
        };
        let results = ended(&|t| t.observe(&update("b", TaskState::Completed, 0), AT));
        assert_eq!(results.unwrap()["b"], Value::str("out"));
        assert!(matches!(
            ended(&|t| t.observe(&update("b", TaskState::Failed, 0), AT)),
            Err(WaitError::Failed(RunFailure::SinkFailed { task })) if task == "b"
        ));
        assert!(matches!(
            ended(&|t| assert!(t.fail(RunFailure::Stalled))),
            Err(WaitError::Failed(RunFailure::Stalled))
        ));
        assert!(matches!(
            ended(&|t| assert!(t.fail(RunFailure::Cancelled))),
            Err(WaitError::Cancelled)
        ));
        assert!(matches!(ended(&|t| t.close()), Err(WaitError::Cancelled)));
        match ended(&|t| assert!(t.fail(RunFailure::DeadlineExpired))) {
            Err(WaitError::Deadline { statuses }) => {
                assert_eq!(statuses, vec![("a".to_owned(), TaskState::Completed)]);
            }
            other => panic!("expected Deadline, got {other:?}"),
        }
        let no_result = StatusUpdate {
            result: None,
            ..update("b", TaskState::Completed, 0)
        };
        assert!(matches!(
            ended(&|t| t.observe(&no_result, AT)),
            Err(WaitError::MissingResult { task }) if task == "b"
        ));
    }

    #[test]
    fn wait_ended_returns_on_terminal_on_close_and_times_out_otherwise() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        assert!(!tracker.wait_ended(Some(Duration::ZERO)), "still running");
        assert!(!tracker.wait_ended(Some(Duration::from_millis(1))));
        tracker.observe(&update("a", TaskState::Completed, 0), AT);
        assert!(!tracker.wait_ended(Some(Duration::ZERO)), "a is no sink");
        tracker.observe(&update("b", TaskState::Completed, 0), AT);
        assert!(tracker.wait_ended(Some(Duration::ZERO)), "terminal");
        assert!(tracker.wait_ended(None));

        let failed = RunTracker::new(meta(), RunId::generate());
        failed.fail(RunFailure::Cancelled);
        assert!(failed.wait_ended(None), "failed");

        // A waiter parked with no bound is released by a plain close.
        let torn_down = Arc::new(RunTracker::new(meta(), RunId::generate()));
        let waiter = {
            let tracker = torn_down.clone();
            std::thread::spawn(move || tracker.wait_ended(None))
        };
        torn_down.close();
        assert!(waiter.join().unwrap(), "closed");
        assert_eq!(torn_down.outcome(), None, "closing is not an outcome");
    }

    /// The least a vehicle is: no agents, no clock, nothing to stop —
    /// somebody else feeds the tracker.
    struct NoAgents;

    impl RunControl for NoAgents {
        fn backend(&self) -> &'static str {
            "test"
        }
        fn kill(&self, _: &str) -> bool {
            false
        }
        fn respawn(&self, _: &str) -> bool {
            false
        }
        fn alive(&self, _: &str) -> bool {
            false
        }
        fn incarnation(&self, _: &str) -> u32 {
            0
        }
        fn stamp(&self, _: &mut RunReport) {}
        fn stop(&self) {}
    }

    #[test]
    fn join_parks_on_the_end_of_the_run_and_subscribes_to_nothing() {
        let tracker = Arc::new(RunTracker::new(meta(), RunId::generate()));
        let handle = RunHandle::new(tracker.clone(), Arc::new(NoAgents));
        let joiner = std::thread::spawn(move || handle.join());
        for state in [TaskState::Running, TaskState::Completed] {
            tracker.observe(&update("a", state, 0), AT);
            tracker.observe(&update("b", state, 0), AT);
            assert!(
                tracker.record.lock().senders.is_empty(),
                "join must not subscribe to the event stream"
            );
        }
        assert!(joiner.join().unwrap().completed);
        // The history is whole for whoever asks afterwards.
        let events: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(events.last(), Some(&RunEvent::RunCompleted));

        // A deadline that passes first cancels the run.
        let tracker = Arc::new(RunTracker::new(meta(), RunId::generate()));
        let handle = RunHandle::new(tracker, Arc::new(NoAgents))
            .with_deadline(Some(Duration::from_millis(1)));
        assert!(handle.join().deadline_expired);
    }

    #[test]
    fn run_event_json_roundtrip() {
        for event in [
            RunEvent::TaskStateChanged {
                task: "T1".into(),
                from: Some(TaskState::Running),
                to: TaskState::Completed,
                incarnation: 2,
            },
            RunEvent::TaskResult {
                task: "T1".into(),
                value: Value::str("v"),
            },
            RunEvent::AdaptationFired {
                adaptation: "replace-T2".into(),
                failed_task: "T2".into(),
            },
            RunEvent::AgentRespawned {
                task: "T3".into(),
                incarnation: 1,
            },
            RunEvent::RunCompleted,
            RunEvent::RunFailed {
                reason: RunFailure::DeadlineExpired,
            },
        ] {
            let json = serde_json::to_string(&event).unwrap();
            let back: RunEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn meta_of_workflow_matches_programs() {
        use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
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
        let from_wf = RunMeta::of(&wf);
        let (programs, plans) = ginflow_hoclflow::agent_programs(&wf);
        let from_programs = RunMeta::from_programs(&programs, &plans);
        assert_eq!(from_wf.sinks, from_programs.sinks);
        assert_eq!(from_wf.standby, from_programs.standby);
        assert_eq!(from_wf.adaptations, from_programs.adaptations);
        let mut a = from_wf.tasks.clone();
        let mut b2 = from_programs.tasks.clone();
        a.sort();
        b2.sort();
        assert_eq!(a, b2);
    }
}
