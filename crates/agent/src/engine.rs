//! The unified execution API: typed run events, run handles, reports,
//! and the [`ExecutionBackend`] trait every execution vehicle implements.
//!
//! The paper's value proposition is decentralised execution *observed
//! through the shared status topic* (§IV): every service agent publishes
//! its state transitions to one shared topic, and anyone — the user
//! workstation of Fig 1 included — can watch the workflow unfold by
//! subscribing to it. Before this module the public surface only exposed
//! a blocking [`wait`](crate::WorkflowRun::wait) over final sink results;
//! now every backend feeds the raw status stream through a
//! [`RunTracker`], which derives an ordered, typed [`RunEvent`] stream
//! (task transitions, adaptation firings, recovery incarnations, run
//! completion) and fans it out to any number of subscribers.
//!
//! The pieces:
//!
//! * [`ExecutionBackend`] — "compile this workflow and run it", the one
//!   seam the live scheduler and the virtual-time simulator both
//!   implement. Future backends (async brokers, multi-process shards,
//!   remote executors) plug in here.
//! * [`RunHandle`] — a launched run: event subscription
//!   ([`RunHandle::events`]), observation, fault injection, first-class
//!   cancellation ([`RunHandle::cancel`]) and deadline enforcement
//!   ([`RunHandle::join`]). `join` parks on the run's *end*
//!   ([`RunTracker::wait_ended`], reached through
//!   [`RunControl::wait_ended`]) rather than reading the event stream
//!   to find its last entry: waiting for a 4000-task run costs the
//!   waiter one wake-up, not twelve thousand. The stream is for whoever
//!   wants the events.
//! * [`RunReport`] — the structured outcome: per-task states, timings and
//!   incarnations, adaptation/recovery counters — consumed by the CLI
//!   and the benchmarks.
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

/// The fan-out point: ordered history plus live subscriber channels.
struct EventHub {
    state: Mutex<HubState>,
}

struct HubState {
    history: Vec<RunEvent>,
    senders: Vec<crossbeam::channel::Sender<RunEvent>>,
    closed: bool,
}

impl EventHub {
    fn new() -> Self {
        EventHub {
            state: Mutex::new(HubState {
                history: Vec::new(),
                senders: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Append to the history and deliver to every live subscriber.
    fn emit(&self, event: RunEvent) {
        let mut s = self.state.lock();
        if s.closed {
            return;
        }
        for tx in &s.senders {
            let _ = tx.send(event.clone());
        }
        s.history.push(event);
    }

    /// New subscriber: replay history, then live (if still open). Replay
    /// and registration happen under one lock so no concurrently emitted
    /// event can fall between them.
    fn subscribe(&self) -> RunEvents {
        let mut s = self.state.lock();
        let (tx, rx) = crossbeam::channel::unbounded();
        for event in &s.history {
            let _ = tx.send(event.clone());
        }
        if !s.closed {
            s.senders.push(tx);
        }
        RunEvents { rx }
    }

    /// Close the stream: live subscribers end after draining; the history
    /// stays replayable for late subscribers.
    fn close(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        s.senders.clear();
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

struct TrackInner {
    /// Latest `(state, incarnation)` observed per task.
    tasks: HashMap<String, (TaskState, u32)>,
    /// Adaptation indices that already fired.
    fired: HashSet<usize>,
    /// Sinks observed `Completed`.
    done_sinks: HashSet<String>,
    terminal: Option<RunOutcome>,
    adaptations_fired: u32,
    respawns: u32,
}

/// Derives the typed [`RunEvent`] stream from raw [`StatusUpdate`]s —
/// the single implementation every backend (live scheduler,
/// virtual-time sim) feeds, so streams are comparable across backends.
/// Stale updates from superseded incarnations are dropped, so per-task
/// streams are monotone: state rank never regresses within an
/// incarnation and incarnations never decrease.
pub struct RunTracker {
    meta: RunMeta,
    /// `meta.sinks` as a set, and for each watched task the indices of the
    /// adaptations it fires — both built once, so an update costs the same
    /// whether the workflow has two sinks or two thousand.
    sinks: HashSet<String>,
    watchers: HashMap<String, Vec<usize>>,
    run_id: RunId,
    hub: EventHub,
    inner: Mutex<TrackInner>,
    /// Set by [`RunTracker::close`] once the stream holds everything it
    /// ever will; what [`RunTracker::wait_ended`] parks on.
    ended: Mutex<bool>,
    ended_changed: Condvar,
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
            hub: EventHub::new(),
            inner: Mutex::new(TrackInner {
                tasks: HashMap::new(),
                fired: HashSet::new(),
                done_sinks: HashSet::new(),
                terminal: None,
                adaptations_fired: 0,
                respawns: 0,
            }),
            ended: Mutex::new(false),
            ended_changed: Condvar::new(),
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

    /// Feed one status update; derived events fan out to subscribers.
    /// Ignored after a terminal event, and for updates from superseded
    /// incarnations.
    pub fn observe(&self, update: &StatusUpdate) {
        let mut events: Vec<RunEvent> = Vec::new();
        let mut terminal = false;
        {
            let mut s = self.inner.lock();
            if s.terminal.is_some() {
                return;
            }
            let prev = s.tasks.get(&update.task).copied();
            if let Some((_, pinc)) = prev {
                if update.incarnation < pinc {
                    return; // stale ghost of a replaced incarnation
                }
            }
            // A first observation at incarnation > 0 is a recovery too:
            // the dead incarnation may never have published anything.
            let prev_incarnation = prev.map(|(_, i)| i).unwrap_or(0);
            if update.incarnation > prev_incarnation {
                s.respawns += update.incarnation - prev_incarnation;
                events.push(RunEvent::AgentRespawned {
                    task: update.task.clone(),
                    incarnation: update.incarnation,
                });
            }
            let changed = prev != Some((update.state, update.incarnation));
            if changed {
                events.push(RunEvent::TaskStateChanged {
                    task: update.task.clone(),
                    from: prev.map(|(state, _)| state),
                    to: update.state,
                    incarnation: update.incarnation,
                });
            }
            s.tasks
                .insert(update.task.clone(), (update.state, update.incarnation));
            if changed && update.state == TaskState::Completed {
                if let Some(value) = &update.result {
                    events.push(RunEvent::TaskResult {
                        task: update.task.clone(),
                        value: value.clone(),
                    });
                }
            }
            let watching = self.watchers.get(&update.task);
            if update.state == TaskState::Failed {
                for &i in watching.into_iter().flatten() {
                    if s.fired.insert(i) {
                        s.adaptations_fired += 1;
                        events.push(RunEvent::AdaptationFired {
                            adaptation: self.meta.adaptations[i].0.clone(),
                            failed_task: update.task.clone(),
                        });
                    }
                }
            }
            if self.sinks.contains(&update.task) {
                match update.state {
                    TaskState::Completed => {
                        s.done_sinks.insert(update.task.clone());
                        if s.done_sinks.len() == self.meta.sinks.len() {
                            s.terminal = Some(RunOutcome::Completed);
                            events.push(RunEvent::RunCompleted);
                            terminal = true;
                        }
                    }
                    TaskState::Failed if watching.is_none() => {
                        let failure = RunFailure::SinkFailed {
                            task: update.task.clone(),
                        };
                        s.terminal = Some(RunOutcome::Failed(failure.clone()));
                        events.push(RunEvent::RunFailed { reason: failure });
                        terminal = true;
                    }
                    _ => {}
                }
            }
        }
        for event in events {
            self.hub.emit(event);
        }
        if terminal {
            self.close();
        }
    }

    /// Mark the run failed (cancel, deadline, stall) and emit the
    /// terminal event. Returns `false` (and does nothing) when the run
    /// already reached a terminal state.
    pub fn fail(&self, failure: RunFailure) -> bool {
        {
            let mut s = self.inner.lock();
            if s.terminal.is_some() {
                return false;
            }
            s.terminal = Some(RunOutcome::Failed(failure.clone()));
        }
        self.hub.emit(RunEvent::RunFailed { reason: failure });
        self.close();
        true
    }

    /// Close the stream — after the terminal event, or without one (plain
    /// teardown of a still-running workflow) — and release whoever is
    /// parked in [`RunTracker::wait_ended`]. The terminal event is in
    /// the history before any waiter wakes.
    pub fn close(&self) {
        self.hub.close();
        *self.ended.lock() = true;
        self.ended_changed.notify_all();
    }

    /// Park until the run has ended — a terminal event was derived, the
    /// run was failed, or it was torn down — for at most `timeout`
    /// (`None`: no bound). `false` means the timeout passed first. The
    /// wait costs the caller one wake-up however many events the run
    /// produces; it subscribes to nothing.
    pub fn wait_ended(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut ended = self.ended.lock();
        while !*ended {
            match deadline {
                None => self.ended_changed.wait(&mut ended),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    self.ended_changed.wait_for(&mut ended, deadline - now);
                }
            }
        }
        true
    }

    /// Subscribe: full ordered history, then live.
    pub fn subscribe(&self) -> RunEvents {
        self.hub.subscribe()
    }

    /// The outcome, once terminal.
    pub fn outcome(&self) -> Option<RunOutcome> {
        self.inner.lock().terminal.clone()
    }

    /// `(adaptations fired, respawns observed)` so far.
    pub fn counts(&self) -> (u32, u32) {
        let s = self.inner.lock();
        (s.adaptations_fired, s.respawns)
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

/// Control surface a backend's run object implements; [`RunHandle`] is
/// the user-facing facade over a boxed instance. Object-safe on purpose:
/// the scheduler's [`crate::WorkflowRun`] and the simulator's
/// finished-run shim both live behind it. Every method is required —
/// both runs own a [`RunTracker`], and what the tracker can answer
/// (`subscribe`, `wait_ended`) they forward to it.
pub trait RunControl: Send + Sync {
    /// Backend label ("scheduler", "sharded", "sim", …).
    fn backend(&self) -> &'static str;
    /// The run's id (its topic-namespace key).
    fn run_id(&self) -> String;
    /// Latest observed state of a task.
    fn state_of(&self, task: &str) -> Option<TaskState>;
    /// Latest observed result of a task.
    fn result_of(&self, task: &str) -> Option<Value>;
    /// Snapshot of all observed task states.
    fn statuses(&self) -> Vec<(String, TaskState)>;
    /// Crash a task's agent (fault injection). `false` when unsupported
    /// or the agent is already gone.
    fn kill(&self, task: &str) -> bool;
    /// Start a replacement incarnation (§IV-B). `false` when
    /// unsupported.
    fn respawn(&self, task: &str) -> bool;
    /// Is the task's agent alive?
    fn alive(&self, task: &str) -> bool;
    /// Current incarnation of a task's agent.
    fn incarnation(&self, task: &str) -> u32;
    /// Subscribe to the run's event stream.
    fn subscribe(&self) -> RunEvents;
    /// Block until every sink completes (or `timeout`).
    fn wait_sinks(&self, timeout: Duration) -> Result<HashMap<String, Value>, WaitError>;
    /// Park until the run has ended (terminal event, failure or
    /// teardown) or `timeout` passes — `false` on timeout. Every run
    /// owns a [`RunTracker`]; this forwards to its
    /// [`RunTracker::wait_ended`].
    fn wait_ended(&self, timeout: Option<Duration>) -> bool;
    /// Mark the run failed with `failure` and tear everything down
    /// (agents observe the shutdown flag between events; worker threads
    /// are joined; nothing is published). Idempotent.
    fn cancel_with(&self, failure: RunFailure);
    /// Plain teardown without marking failure (post-completion
    /// shutdown). Idempotent.
    fn stop(&self);
    /// Structured snapshot of the run (partial while still executing).
    fn report(&self) -> RunReport;
}

/// A launched workflow, whatever backend executes it: observation, a
/// typed event stream, fault injection, cancellation and deadline
/// enforcement.
pub struct RunHandle {
    inner: Arc<dyn RunControl>,
    deadline: Option<Instant>,
}

impl RunHandle {
    /// Wrap a backend's run object.
    pub fn new(inner: Arc<dyn RunControl>) -> Self {
        RunHandle {
            inner,
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
        self.inner.backend()
    }

    /// The run's id: the key of the topic namespace (`run/<id>/…`) the
    /// run coordinates under. Auto-generated at launch unless pinned
    /// (e.g. `Engine::builder().run_id(..)`, `ginflow run --run-id`).
    pub fn run_id(&self) -> String {
        self.inner.run_id()
    }

    /// Subscribe to the typed run event stream (full history replayed
    /// first, then live).
    pub fn events(&self) -> RunEvents {
        self.inner.subscribe()
    }

    /// Latest observed state of a task.
    pub fn state_of(&self, task: &str) -> Option<TaskState> {
        self.inner.state_of(task)
    }

    /// Latest observed result of a task.
    pub fn result_of(&self, task: &str) -> Option<Value> {
        self.inner.result_of(task)
    }

    /// Snapshot of all observed task states, sorted by task name.
    pub fn statuses(&self) -> Vec<(String, TaskState)> {
        self.inner.statuses()
    }

    /// Crash a task's agent (fault injection).
    pub fn kill(&self, task: &str) -> bool {
        self.inner.kill(task)
    }

    /// Start a replacement incarnation for a task (§IV-B recovery).
    pub fn respawn(&self, task: &str) -> bool {
        self.inner.respawn(task)
    }

    /// Is the task's agent alive?
    pub fn alive(&self, task: &str) -> bool {
        self.inner.alive(task)
    }

    /// Current incarnation number of a task's agent.
    pub fn incarnation(&self, task: &str) -> u32 {
        self.inner.incarnation(task)
    }

    /// Cancel the run: emits [`RunEvent::RunFailed`] with
    /// [`RunFailure::Cancelled`], tears every agent down, and joins all
    /// worker threads before returning — no thread outlives this call.
    pub fn cancel(&self) {
        self.inner.cancel_with(RunFailure::Cancelled);
    }

    /// Block until every sink completes, up to `timeout` (clamped by the
    /// run deadline, which cancels the run on expiry).
    pub fn wait(&self, timeout: Duration) -> Result<HashMap<String, Value>, WaitError> {
        let (effective, deadline_gates) = match self.remaining() {
            Some(left) if left < timeout => (left, true),
            _ => (timeout, false),
        };
        match self.inner.wait_sinks(effective) {
            Err(WaitError::Timeout { statuses }) if deadline_gates => {
                self.inner.cancel_with(RunFailure::DeadlineExpired);
                Err(WaitError::Deadline { statuses })
            }
            other => other,
        }
    }

    /// Drive the run to its end: park until it ended (or the deadline,
    /// which cancels with [`RunFailure::DeadlineExpired`]), tear the run
    /// down, and return the final [`RunReport`] — partial when cancelled
    /// or expired. The wait is on the run's end itself
    /// ([`RunControl::wait_ended`]), not on its event stream: joining
    /// subscribes to nothing and wakes once.
    pub fn join(self) -> RunReport {
        if !self.inner.wait_ended(self.remaining()) {
            self.inner.cancel_with(RunFailure::DeadlineExpired);
        }
        let report = self.inner.report();
        self.inner.stop();
        report
    }

    /// Structured snapshot of the run so far (partial while executing).
    pub fn report(&self) -> RunReport {
        self.inner.report()
    }

    /// Tear the run down without marking it failed.
    pub fn shutdown(self) {
        self.inner.stop();
    }

    fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        // The backend run object also stops itself on drop, but the Arc
        // may be shared; stopping here makes `drop(handle)` deterministic.
        self.inner.stop();
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
        tracker.observe(&update("a", TaskState::Running, 0));
        tracker.observe(&update("a", TaskState::Completed, 0));
        tracker.observe(&update("b", TaskState::Running, 0));
        tracker.observe(&update("b", TaskState::Completed, 0));
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
        tracker.observe(&update("a", TaskState::Running, 0));
        tracker.observe(&update("b", TaskState::Completed, 0));
        let replayed: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(replayed.last(), Some(&RunEvent::RunCompleted));
        assert!(replayed.len() >= 3);
    }

    #[test]
    fn adaptation_failure_and_respawn_events() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        tracker.observe(&update("a", TaskState::Running, 0));
        tracker.observe(&update("a", TaskState::Failed, 0));
        tracker.observe(&update("a", TaskState::Running, 1));
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
        assert_eq!(tracker.counts(), (1, 1));
    }

    #[test]
    fn stale_incarnation_updates_are_dropped() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        // First-ever observation at incarnation 1: the dead incarnation
        // 0 never published, which still counts as one recovery.
        tracker.observe(&update("a", TaskState::Running, 1));
        tracker.observe(&update("a", TaskState::Completed, 0)); // ghost
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
        tracker.observe(&update("b", TaskState::Failed, 0));
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
        tracker.observe(&update("src", TaskState::Completed, 0));
        for (done, sink) in sinks.iter().enumerate() {
            assert_eq!(tracker.outcome(), None, "after {done} sinks");
            assert_eq!(tracker.inner.lock().done_sinks.len(), done);
            tracker.observe(&update(sink, TaskState::Running, 0));
            tracker.observe(&update(sink, TaskState::Completed, 0));
            // A repeated completion is not a second sink.
            tracker.observe(&update(sink, TaskState::Completed, 0));
        }
        assert_eq!(tracker.outcome(), Some(RunOutcome::Completed));
        assert_eq!(tracker.inner.lock().done_sinks.len(), 2000);
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
        tracker.observe(&update("b", TaskState::Completed, 0)); // ignored
        let events: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(
            events,
            vec![RunEvent::RunFailed {
                reason: RunFailure::Cancelled
            }]
        );
    }

    #[test]
    fn wait_ended_returns_on_terminal_on_close_and_times_out_otherwise() {
        let tracker = RunTracker::new(meta(), RunId::generate());
        assert!(!tracker.wait_ended(Some(Duration::ZERO)), "still running");
        assert!(!tracker.wait_ended(Some(Duration::from_millis(1))));
        tracker.observe(&update("a", TaskState::Completed, 0));
        assert!(!tracker.wait_ended(Some(Duration::ZERO)), "a is no sink");
        tracker.observe(&update("b", TaskState::Completed, 0));
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

    /// The least a run is: a tracker somebody else feeds.
    struct TrackedRun(Arc<RunTracker>);

    impl RunControl for TrackedRun {
        fn backend(&self) -> &'static str {
            "test"
        }
        fn run_id(&self) -> String {
            self.0.run_id().as_str().to_owned()
        }
        fn state_of(&self, _: &str) -> Option<TaskState> {
            None
        }
        fn result_of(&self, _: &str) -> Option<Value> {
            None
        }
        fn statuses(&self) -> Vec<(String, TaskState)> {
            Vec::new()
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
        fn subscribe(&self) -> RunEvents {
            self.0.subscribe()
        }
        fn wait_sinks(&self, _: Duration) -> Result<HashMap<String, Value>, WaitError> {
            Err(WaitError::Cancelled)
        }
        fn wait_ended(&self, timeout: Option<Duration>) -> bool {
            self.0.wait_ended(timeout)
        }
        fn cancel_with(&self, failure: RunFailure) {
            self.0.fail(failure);
        }
        fn stop(&self) {
            self.0.close();
        }
        fn report(&self) -> RunReport {
            let outcome = self.0.outcome();
            RunReport {
                backend: "test",
                run_id: self.run_id(),
                completed: outcome == Some(RunOutcome::Completed),
                cancelled: outcome == Some(RunOutcome::Failed(RunFailure::Cancelled)),
                deadline_expired: outcome == Some(RunOutcome::Failed(RunFailure::DeadlineExpired)),
                wall: Duration::ZERO,
                adaptations_fired: 0,
                respawns: 0,
                lagged: 0,
                metrics: Vec::new(),
                tasks: BTreeMap::new(),
            }
        }
    }

    #[test]
    fn join_parks_on_the_end_of_the_run_and_subscribes_to_nothing() {
        let tracker = Arc::new(RunTracker::new(meta(), RunId::generate()));
        let handle = RunHandle::new(Arc::new(TrackedRun(tracker.clone())));
        let joiner = std::thread::spawn(move || handle.join());
        for state in [TaskState::Running, TaskState::Completed] {
            tracker.observe(&update("a", state, 0));
            tracker.observe(&update("b", state, 0));
            assert!(
                tracker.hub.state.lock().senders.is_empty(),
                "join must not subscribe to the event stream"
            );
        }
        assert!(joiner.join().unwrap().completed);
        // The history is whole for whoever asks afterwards.
        let events: Vec<RunEvent> = tracker.subscribe().collect();
        assert_eq!(events.last(), Some(&RunEvent::RunCompleted));

        // A deadline that passes first cancels the run.
        let tracker = Arc::new(RunTracker::new(meta(), RunId::generate()));
        let handle = RunHandle::new(Arc::new(TrackedRun(tracker.clone())))
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
