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
//! **The record is indexed by task id.** `observe` resolves an update's
//! task name against the workflow's DAG once, before it takes the lock,
//! and drops an update naming no task of the workflow; every per-task
//! row then lives at its dense [`TaskId`] in one array sized at
//! construction. The history is kept compactly: each entry names its
//! task by id, carries no string, and a result entry reads its value
//! from the task's row for as long as the row holds that value — a row
//! whose result is replaced hands the old one to the entry first — so
//! each value is stored once. An entry becomes a [`RunEvent`] only when
//! somebody receives it: at once for the live subscribers, if there are
//! any, and on [`RunTracker::subscribe`] for a late one, who therefore
//! receives exactly what an early one did. Task names come back only at
//! the edges — events, `statuses`, and the [`RunReport`], whose
//! name-keyed table is built once from the rows.
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
use ginflow_core::{TaskId, TaskState, Value, Workflow};
use ginflow_mq::RunId;
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{mpsc, Arc};
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
    rx: mpsc::Receiver<RunEvent>,
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
        match self.rx.recv_timeout(timeout) {
            Ok(e) => EventWait::Event(e),
            Err(mpsc::RecvTimeoutError::Timeout) => EventWait::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => EventWait::Closed,
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
// The tracker
// ---------------------------------------------------------------------

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
    /// One row per task of the workflow, at its [`TaskId`]; empty once
    /// [`RunTracker::take_report`] has moved them into the final report.
    rows: Vec<Row>,
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
    /// Every event emitted, in order and compactly: what a late
    /// subscriber replays.
    history: Vec<Logged>,
    /// Result values the history holds itself: each was a row's until
    /// the row's result was replaced.
    kept: Vec<Value>,
    /// Live subscribers; dropped when the run ends, which closes their
    /// streams once drained.
    senders: Vec<mpsc::Sender<RunEvent>>,
}

/// One task's row of the record.
#[derive(Default)]
struct Row {
    /// Latest accepted update, with its timing marks; `Idle` until
    /// observed.
    report: TaskReport,
    /// An update for the task was accepted: `statuses` lists it.
    observed: bool,
    /// The history entry whose value is `report.result`, while it is.
    shown: Option<u32>,
}

/// A [`RunEvent`] as the history keeps it: tasks by id, no string, and a
/// result's value held by its row or by [`Record::kept`].
#[derive(Clone, Copy)]
enum Logged {
    StateChanged {
        task: TaskId,
        from: Option<TaskState>,
        to: TaskState,
        incarnation: u32,
    },
    /// A result whose value is still its task's row's.
    Result(TaskId),
    /// A result whose value is `kept[index]`.
    KeptResult {
        task: TaskId,
        index: u32,
    },
    AdaptationFired {
        adaptation: u32,
        task: TaskId,
    },
    Respawned {
        task: TaskId,
        incarnation: u32,
    },
    /// The terminal event, read from the outcome.
    Ended,
}

impl Record {
    /// Append to the history and deliver to every live subscriber — the
    /// one place an event is made as it happens, and only for them.
    fn emit(&mut self, workflow: &Workflow, entry: Logged) {
        if let Logged::Result(task) = entry {
            self.rows[task.index()].shown = Some(self.history.len() as u32);
        }
        if !self.senders.is_empty() {
            let event = self.expand(workflow, entry);
            for tx in &self.senders {
                let _ = tx.send(event.clone());
            }
        }
        self.history.push(entry);
    }

    /// The history's result `entry`, which read `task`'s row, holds
    /// `value` — the row's result until now — itself from here on.
    fn keep(&mut self, task: TaskId, entry: u32, value: Option<Value>) {
        let index = self.kept.len() as u32;
        self.kept.push(value.expect("a shown result has a value"));
        self.history[entry as usize] = Logged::KeptResult { task, index };
    }

    /// The event a history entry stands for.
    fn expand(&self, workflow: &Workflow, entry: Logged) -> RunEvent {
        let name = |task: TaskId| workflow.dag().name_of(task).to_owned();
        match entry {
            Logged::StateChanged {
                task,
                from,
                to,
                incarnation,
            } => RunEvent::TaskStateChanged {
                task: name(task),
                from,
                to,
                incarnation,
            },
            Logged::Result(task) => RunEvent::TaskResult {
                task: name(task),
                value: self.rows[task.index()]
                    .report
                    .result
                    .clone()
                    .expect("a shown result has a value"),
            },
            Logged::KeptResult { task, index } => RunEvent::TaskResult {
                task: name(task),
                value: self.kept[index as usize].clone(),
            },
            Logged::AdaptationFired { adaptation, task } => RunEvent::AdaptationFired {
                adaptation: workflow.adaptations()[adaptation as usize].name.clone(),
                failed_task: name(task),
            },
            Logged::Respawned { task, incarnation } => RunEvent::AgentRespawned {
                task: name(task),
                incarnation,
            },
            Logged::Ended => match &self.outcome {
                Some(RunOutcome::Completed) => RunEvent::RunCompleted,
                Some(RunOutcome::Failed(reason)) => RunEvent::RunFailed {
                    reason: reason.clone(),
                },
                None => unreachable!("a terminal entry is logged with its outcome"),
            },
        }
    }

    /// All observed task states, sorted by task name.
    fn statuses(&self, workflow: &Workflow) -> Vec<(String, TaskState)> {
        let dag = workflow.dag();
        let mut statuses: Vec<(String, TaskState)> = dag
            .ids()
            .zip(&self.rows)
            .filter(|(_, row)| row.observed)
            .map(|(id, row)| (dag.name_of(id).to_owned(), row.report.state))
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
    /// The run's workflow, read for sinks, standby tasks and watch lists
    /// (its DAG is the caller's, shared behind an `Arc`).
    workflow: Workflow,
    /// How many sinks the workflow has.
    sink_count: usize,
    run_id: RunId,
    record: Mutex<Record>,
    /// Notified when `record.ended` turns true, and at no other time.
    ended: Condvar,
}

impl RunTracker {
    /// Fresh tracker over `workflow`, for the run named `run_id` — the
    /// namespace key under which the run's status topic lives, carried
    /// here so every report and handle can name it.
    pub fn new(workflow: &Workflow, run_id: RunId) -> Self {
        let rows = workflow.dag().ids().map(|_| Row::default()).collect();
        RunTracker {
            workflow: workflow.clone(),
            sink_count: workflow.dag().sinks().len(),
            run_id,
            record: Mutex::new(Record {
                rows,
                ..Record::default()
            }),
            ended: Condvar::new(),
        }
    }

    /// The run this tracker observes.
    pub fn run_id(&self) -> &RunId {
        &self.run_id
    }

    /// Fold one status update in, `at` being its time relative to launch
    /// (wall on live backends, virtual in the sim); derived events fan
    /// out to subscribers. An update from a superseded incarnation, or
    /// naming no task of the workflow, changes nothing. Once the run has
    /// ended an update still lands in the per-task record — a
    /// straggler's completion belongs in the report — but derives no
    /// event.
    pub fn observe(&self, update: &StatusUpdate, at: Duration) {
        let Some(id) = self.workflow.dag().by_name(&update.task) else {
            return;
        };
        let mut guard = self.record.lock();
        let r = &mut *guard;
        // Gone with the rows once the final report took them.
        let Some(row) = r.rows.get_mut(id.index()) else {
            return;
        };
        let prev = row
            .observed
            .then_some((row.report.state, row.report.incarnation));
        let replaced = row.report.result.take();
        if !row.report.absorb(update, at) {
            row.report.result = replaced;
            return;
        }
        row.observed = true;
        if let Some(entry) = row.shown.take() {
            r.keep(id, entry, replaced);
        }
        if r.ended {
            return;
        }
        let workflow = &self.workflow;
        // A first observation at incarnation > 0 is a recovery too:
        // the dead incarnation may never have published anything.
        let prev_incarnation = prev.map_or(0, |(_, incarnation)| incarnation);
        if update.incarnation > prev_incarnation {
            r.respawns += update.incarnation - prev_incarnation;
            r.emit(
                workflow,
                Logged::Respawned {
                    task: id,
                    incarnation: update.incarnation,
                },
            );
        }
        if prev != Some((update.state, update.incarnation)) {
            r.emit(
                workflow,
                Logged::StateChanged {
                    task: id,
                    from: prev.map(|(state, _)| state),
                    to: update.state,
                    incarnation: update.incarnation,
                },
            );
            if let (TaskState::Completed, Some(_)) = (update.state, &update.result) {
                r.emit(workflow, Logged::Result(id));
            }
        }
        // A failure fires every adaptation watching the task, in table
        // order.
        let mut watched = false;
        if update.state == TaskState::Failed {
            for (i, adaptation) in workflow.adaptations().iter().enumerate() {
                if !adaptation.watched.contains(&id) {
                    continue;
                }
                watched = true;
                if r.fired.insert(i) {
                    r.emit(
                        workflow,
                        Logged::AdaptationFired {
                            adaptation: i as u32,
                            task: id,
                        },
                    );
                }
            }
        }
        if !self.is_sink(id) {
            return;
        }
        let completed = |state| usize::from(state == TaskState::Completed);
        r.sinks_done += completed(update.state);
        r.sinks_done -= prev.map_or(0, |(state, _)| completed(state));
        if update.state == TaskState::Completed && r.sinks_done == self.sink_count {
            self.end(guard, Some(RunOutcome::Completed));
        } else if update.state == TaskState::Failed && !watched {
            let task = update.task.clone();
            self.end(
                guard,
                Some(RunOutcome::Failed(RunFailure::SinkFailed { task })),
            );
        }
    }

    /// A sink: no destinations, and not a standby task.
    fn is_sink(&self, id: TaskId) -> bool {
        let dag = self.workflow.dag();
        dag.successors(id).is_empty() && !dag.task(id).is_standby()
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
        let terminal = outcome.is_some();
        record.outcome = outcome;
        if terminal {
            record.emit(&self.workflow, Logged::Ended);
        }
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
        let (tx, rx) = mpsc::channel();
        for &entry in &record.history {
            let _ = tx.send(record.expand(&self.workflow, entry));
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
        self.read(task, |t| t.state)
    }

    /// Latest observed result of a task.
    pub fn result_of(&self, task: &str) -> Option<Value> {
        self.read(task, |t| t.result.clone()).flatten()
    }

    /// `f` of an observed task's row; `None` for a task never observed
    /// or not in the workflow.
    fn read<T>(&self, task: &str, f: impl FnOnce(&TaskReport) -> T) -> Option<T> {
        let id = self.workflow.dag().by_name(task)?;
        let record = self.record.lock();
        let row = record.rows.get(id.index()).filter(|row| row.observed)?;
        Some(f(&row.report))
    }

    /// Snapshot of all observed task states, sorted by task name.
    pub fn statuses(&self) -> Vec<(String, TaskState)> {
        self.record.lock().statuses(&self.workflow)
    }

    /// What a wait on the *ended* run yields: every sink's result when
    /// all of them completed — which is what [`RunEvent::RunCompleted`]
    /// means — and otherwise how the run ended instead. A sink that
    /// completed without publishing a result is an error, not a silent
    /// omission.
    fn sink_results(&self) -> Result<HashMap<String, Value>, WaitError> {
        let record = self.record.lock();
        let dag = self.workflow.dag();
        let mut results = HashMap::with_capacity(self.sink_count);
        for id in dag.sinks() {
            let sink = dag.name_of(id);
            let task = record.rows.get(id.index()).map(|row| &row.report);
            let Some(task) = task.filter(|t| t.state == TaskState::Completed) else {
                let statuses = record.statuses(&self.workflow);
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
                return Err(WaitError::MissingResult {
                    task: sink.to_owned(),
                });
            };
            results.insert(sink.to_owned(), value.clone());
        }
        Ok(results)
    }

    /// The one place a [`RunReport`] is assembled, for every backend:
    /// the fold of the status stream so far (partial while the run
    /// executes). `wall`, `resident_peak`, `rehydrations` and
    /// `ship_failures` are the vehicle's to fill in
    /// ([`RunControl::stamp`]).
    pub fn report(&self, backend: &'static str) -> RunReport {
        let record = self.record.lock();
        let rows = record.rows.iter().map(|row| row.report.clone());
        self.assemble(backend, &record, rows)
    }

    /// The final report of a run whose vehicle has stopped: the rows
    /// move into it instead of being copied, which leaves the tracker
    /// knowing no task — only the report does. A result the history
    /// still reads from its row is the one value copied, into the
    /// history.
    fn take_report(&self, backend: &'static str) -> RunReport {
        let mut record = self.record.lock();
        let rows = std::mem::take(&mut record.rows);
        let mut reports = Vec::with_capacity(rows.len());
        for (id, row) in self.workflow.dag().ids().zip(rows) {
            if let Some(entry) = row.shown {
                record.keep(id, entry, row.report.result.clone());
            }
            reports.push(row.report);
        }
        self.assemble(backend, &record, reports)
    }

    /// A report of `record`, its per-task detail `reports` in task id
    /// order: every task of the workflow, one never observed (an
    /// untriggered standby) `Idle`, as is each one `reports` runs short
    /// of once the final report took the rows.
    fn assemble(
        &self,
        backend: &'static str,
        record: &Record,
        reports: impl IntoIterator<Item = TaskReport>,
    ) -> RunReport {
        let dag = self.workflow.dag();
        let reports = reports
            .into_iter()
            .chain(std::iter::repeat_with(TaskReport::default));
        let tasks: BTreeMap<String, TaskReport> = dag
            .ids()
            .map(|id| dag.name_of(id).to_owned())
            .zip(reports)
            .collect();
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
            resident_peak: 0,
            rehydrations: 0,
            ship_failures: 0,
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
    /// The most agents this vehicle held built at once — compiled
    /// programs, a shard counting its own. An agent is built on its
    /// first turn, not by the message that queues it, and a completed
    /// agent is evicted, so a chain — or a 2000-wide fan-out — on one
    /// worker reads 1. Always 0 on the sim backend.
    pub resident_peak: u64,
    /// Evicted agents this vehicle rebuilt by replay for a late
    /// message. Always 0 on the sim backend.
    pub rehydrations: u64,
    /// Batches an unsharded run handed its broker that the broker
    /// refused, wholly or in part ([`ginflow_mq::Broker::append_many`]'s
    /// error): 0 when each record the run shipped reached the broker's
    /// log — or, over a connection, its client, whose loss ledger
    /// ([`ginflow_mq::Broker::flush`]) reports a record the daemon
    /// refuses later. Always 0 for a shard and on the sim backend.
    pub ship_failures: u64,
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
    /// Start a replacement incarnation (§IV-B): it re-runs, live, every
    /// message the run's log holds for the task before it takes new
    /// ones. `false` when unsupported.
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
    /// puts its clock there), `resident_peak`, `rehydrations` and
    /// `ship_failures`: what the vehicle counted itself.
    fn stamp(&self, report: &mut RunReport);
    /// Tear the vehicle down (agents observe the shutdown flag between
    /// events; worker threads are joined; nothing is published) and give
    /// back what the run held of the broker. Idempotent.
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

    /// Start a replacement incarnation for a task (§IV-B recovery). The
    /// newcomer reads every message keyed to the task back from the
    /// run's inbox log and re-runs them, its service included, before it
    /// takes new ones.
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
        let observed = self.tracker.read(task, |t| t.incarnation).unwrap_or(0);
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
    /// subscribes to nothing and wakes once. The run is stopped before
    /// the report is made, so the tracker's record moves into it.
    /// Stopping an unsharded run waits until the broker has receipted
    /// every record the run shipped — a daemon's log of the run is then
    /// complete — and deletes its topics from an in-process broker: read
    /// the run's log, if at all, before this.
    pub fn join(self) -> RunReport {
        if !self.tracker.wait_ended(self.remaining()) {
            self.cancel_with(RunFailure::DeadlineExpired);
        }
        self.stop();
        let mut report = self.tracker.take_report(self.control.backend());
        self.control.stamp(&mut report);
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

    /// `src → a → b`, and a standby `b'` (fed by `src`) that replaces
    /// `a` when it fails.
    fn workflow() -> Workflow {
        use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
        let mut b = WorkflowBuilder::new("tracker");
        b.task("src", "s").input(Value::str("in"));
        b.task("a", "s").after(["src"]);
        b.task("b", "s").after(["a"]);
        b.adaptation(
            "replace-a",
            ["a"],
            ["a"],
            [ReplacementTask::new("b'", "s", ["src"])],
        );
        b.build().unwrap()
    }

    #[test]
    fn tracker_derives_ordered_events() {
        let tracker = RunTracker::new(&workflow(), RunId::generate());
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
        let tracker = RunTracker::new(&workflow(), RunId::generate());
        tracker.observe(&update("a", TaskState::Running, 0), AT);
        tracker.observe(&update("b", TaskState::Completed, 0), AT);
        let replayed: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(replayed.last(), Some(&RunEvent::RunCompleted));
        assert!(replayed.len() >= 3);
    }

    #[test]
    fn adaptation_failure_and_respawn_events() {
        let tracker = RunTracker::new(&workflow(), RunId::generate());
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
        let tracker = RunTracker::new(&workflow(), RunId::generate());
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
    fn an_update_naming_no_task_of_the_workflow_changes_nothing() {
        let tracker = RunTracker::new(&workflow(), RunId::generate());
        let live = tracker.subscribe();
        tracker.observe(&update("ghost", TaskState::Running, 0), AT);
        tracker.observe(&update("ghost", TaskState::Completed, 1), AT);
        assert_eq!(live.try_recv(), None, "no event");
        assert!(tracker.subscribe().try_recv().is_none(), "no history");
        assert_eq!(tracker.statuses(), vec![]);
        assert_eq!(tracker.state_of("ghost"), None);
        assert_eq!(tracker.result_of("ghost"), None);
        let report = tracker.report("test");
        let names: Vec<&str> = report.tasks.keys().map(String::as_str).collect();
        assert_eq!(names, ["a", "b", "b'", "src"], "exactly the DAG's tasks");
        assert_eq!(report.respawns, 0);
        assert_eq!(tracker.outcome(), None);
    }

    #[test]
    fn a_late_subscriber_receives_exactly_what_a_live_one_did() {
        let done = |task: &str, incarnation, value: &str| StatusUpdate {
            result: Some(Value::str(value)),
            ..update(task, TaskState::Completed, incarnation)
        };
        // An adaptive run: `a` is respawned — its second result replaces
        // the first in its row, not in the history — then fails, which
        // fires `replace-a`; the standby runs, and the unwatched sink's
        // failure ends the run. A straggler lands after the end.
        let failing = vec![
            update("src", TaskState::Running, 0),
            done("src", 0, "src-0"),
            update("a", TaskState::Running, 0),
            done("a", 0, "a-0"),
            update("a", TaskState::Running, 1),
            done("a", 1, "a-1"),
            update("a", TaskState::Failed, 1),
            update("b'", TaskState::Running, 0),
            done("b'", 0, "b'-0"),
            update("b", TaskState::Failed, 0),
            done("a", 2, "a-2"),
        ];
        let completing = vec![
            done("a", 0, "a-0"),
            update("b", TaskState::Running, 0),
            done("b", 0, "b-0"),
        ];
        let mut variants = HashSet::new();
        for (script, results) in [
            (failing, &["src-0", "a-0", "a-1", "b'-0"][..]),
            (completing, &["a-0", "b-0"][..]),
        ] {
            let tracker = RunTracker::new(&workflow(), RunId::generate());
            let live = tracker.subscribe();
            for update in &script {
                tracker.observe(update, AT);
            }
            let live: Vec<RunEvent> = live.collect();
            assert_eq!(tracker.subscribe().collect::<Vec<_>>(), live);
            // The final report takes the rows; the history keeps its
            // values.
            let taken = tracker.take_report("test");
            assert_eq!(tracker.state_of("a"), None, "the report has the rows");
            let after = tracker.report("test");
            assert_eq!(
                after.tasks.keys().collect::<Vec<_>>(),
                taken.tasks.keys().collect::<Vec<_>>()
            );
            assert_eq!(tracker.subscribe().collect::<Vec<_>>(), live);
            let values: Vec<Value> = live
                .iter()
                .filter_map(|e| match e {
                    RunEvent::TaskResult { value, .. } => Some(value.clone()),
                    _ => None,
                })
                .collect();
            let results: Vec<Value> = results.iter().map(|v| Value::str(*v)).collect();
            assert_eq!(values, results);
            variants.extend(live.iter().map(std::mem::discriminant));
        }
        assert_eq!(variants.len(), 6, "every RunEvent variant was streamed");
    }

    #[test]
    fn unwatched_sink_failure_is_terminal() {
        let tracker = RunTracker::new(&workflow(), RunId::generate());
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
        let sinks: Vec<&str> = wf
            .dag()
            .sinks()
            .into_iter()
            .map(|id| wf.dag().name_of(id))
            .collect();
        assert_eq!(sinks.len(), 2000);
        let tracker = RunTracker::new(&wf, RunId::generate());
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
        let tracker = RunTracker::new(&workflow(), RunId::generate());
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
        let tracker = RunTracker::new(&workflow(), RunId::generate());
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
            let tracker = Arc::new(RunTracker::new(&workflow(), RunId::generate()));
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
        let tracker = RunTracker::new(&workflow(), RunId::generate());
        assert!(!tracker.wait_ended(Some(Duration::ZERO)), "still running");
        assert!(!tracker.wait_ended(Some(Duration::from_millis(1))));
        tracker.observe(&update("a", TaskState::Completed, 0), AT);
        assert!(!tracker.wait_ended(Some(Duration::ZERO)), "a is no sink");
        tracker.observe(&update("b", TaskState::Completed, 0), AT);
        assert!(tracker.wait_ended(Some(Duration::ZERO)), "terminal");
        assert!(tracker.wait_ended(None));

        let failed = RunTracker::new(&workflow(), RunId::generate());
        failed.fail(RunFailure::Cancelled);
        assert!(failed.wait_ended(None), "failed");

        // A waiter parked with no bound is released by a plain close.
        let torn_down = Arc::new(RunTracker::new(&workflow(), RunId::generate()));
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
        let tracker = Arc::new(RunTracker::new(&workflow(), RunId::generate()));
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
        let tracker = Arc::new(RunTracker::new(&workflow(), RunId::generate()));
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
}
