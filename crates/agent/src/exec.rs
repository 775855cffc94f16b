//! What the [`crate::scheduler::Scheduler`] runs an agent's events
//! with: command execution, the status board, and the status collector
//! loop.

use crate::core::{Command, Event, SaCore};
use crate::engine::{RunTracker, TaskReport};
use crate::message::StatusUpdate;
use crate::runtime::WaitError;
use ginflow_core::{ServiceRegistry, TaskState, Value};
use ginflow_mq::{Broker, MqError, Subscription, TopicNamespace};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to run one agent's events: the broker for sends and
/// status publishes, the run's topic namespace, the registry for service
/// invocations, and the agent's identity.
pub(crate) struct AgentCtx<'a> {
    pub broker: &'a dyn Broker,
    pub ns: &'a TopicNamespace,
    pub registry: &'a ServiceRegistry,
    pub name: &'a str,
    pub incarnation: u32,
}

impl AgentCtx<'_> {
    /// Run one event through the core and execute every resulting
    /// command, feeding service completions back in until quiescence.
    pub fn dispatch(&self, core: &mut SaCore, event: Event) -> Result<(), ()> {
        let mut queue: VecDeque<Event> = VecDeque::from([event]);
        while let Some(event) = queue.pop_front() {
            let commands = core.handle(event).map_err(|_| ())?;
            for command in commands {
                match command {
                    Command::Invoke {
                        effect,
                        service,
                        params,
                    } => {
                        let result = match self.registry.get(&service) {
                            Some(s) => s.invoke(&params).map_err(|e| e.message),
                            None => Err(format!("unknown service {service:?}")),
                        };
                        queue.push_back(Event::ServiceCompleted { effect, result });
                    }
                    Command::Send { to, message } => {
                        // Destinations come from the compiled DAG, whose
                        // names were validated at launch; a name the
                        // namespace rejects has no inbox to lose a
                        // message to, matching the ignored-publish path.
                        // Fire-and-forget pipelined publish: neither
                        // send consumes the receipt, and on a remote
                        // broker the blocking round trip would be the
                        // whole coordination hot path.
                        if let Ok(topic) = self.ns.inbox(&to) {
                            let _ = self.broker.publish_nowait(
                                &topic,
                                Some(bytes::Bytes::from(to.clone().into_bytes())),
                                message.encode(),
                            );
                        }
                    }
                    Command::Publish { state, result } => {
                        let update = StatusUpdate {
                            task: self.name.to_owned(),
                            state,
                            result,
                            incarnation: self.incarnation,
                        };
                        let _ = self
                            .broker
                            .publish_nowait(self.ns.status(), None, update.encode());
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-task record on the board: latest accepted update plus timing
/// marks relative to the board's epoch (= launch time). The fold itself
/// is [`TaskReport::absorb`], shared with the sim backend's trace
/// replay so per-task observation semantics cannot diverge.
struct BoardState {
    tasks: HashMap<String, TaskReport>,
    /// Set when the run is torn down while waiters may still block.
    closed: bool,
}

/// The observed workflow state: latest status update per task, with a
/// condvar so waiters block instead of polling.
pub(crate) struct StatusBoard {
    epoch: Instant,
    state: Mutex<BoardState>,
    changed: Condvar,
}

impl StatusBoard {
    /// Fresh board; its epoch (the zero of all task timings) is now.
    pub fn new() -> Self {
        StatusBoard {
            epoch: Instant::now(),
            state: Mutex::new(BoardState {
                tasks: HashMap::new(),
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Time since launch.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Record an update and wake waiters. Returns `false` (update
    /// ignored) for stale publishes from a superseded incarnation.
    pub fn record(&self, update: StatusUpdate) -> bool {
        let now = self.epoch.elapsed();
        let mut s = self.state.lock();
        let accepted = s
            .tasks
            .entry(update.task.clone())
            .or_default()
            .absorb(&update, now);
        drop(s);
        if accepted {
            self.changed.notify_all();
        }
        accepted
    }

    /// Mark the board closed (run torn down) and wake every waiter so it
    /// can observe the cancellation instead of blocking out its timeout.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_all();
    }

    /// Latest observed state of a task.
    pub fn state_of(&self, task: &str) -> Option<TaskState> {
        self.state.lock().tasks.get(task).map(|s| s.state)
    }

    /// Latest observed result of a task.
    pub fn result_of(&self, task: &str) -> Option<Value> {
        self.state
            .lock()
            .tasks
            .get(task)
            .and_then(|s| s.result.clone())
    }

    /// Snapshot of all observed task states, sorted by task name.
    pub fn snapshot(&self) -> Vec<(String, TaskState)> {
        let mut v: Vec<(String, TaskState)> = self
            .state
            .lock()
            .tasks
            .iter()
            .map(|(k, s)| (k.clone(), s.state))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Per-task detail for [`crate::engine::RunReport`]; `names` seeds
    /// the map so never-observed tasks appear as `Idle`.
    pub fn task_reports(&self, names: &[String]) -> BTreeMap<String, TaskReport> {
        let s = self.state.lock();
        let mut out: BTreeMap<String, TaskReport> = names
            .iter()
            .map(|n| (n.clone(), TaskReport::default()))
            .collect();
        for (name, entry) in &s.tasks {
            out.insert(name.clone(), entry.clone());
        }
        out
    }

    /// Block (no polling — woken by [`StatusBoard::record`]) until every
    /// sink completed, returning their results. A sink that completed
    /// without publishing a result is an error, not a silent omission.
    pub fn wait_for_sinks(
        &self,
        sinks: &[String],
        timeout: Duration,
    ) -> Result<HashMap<String, Value>, WaitError> {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock();
        loop {
            let done = sinks
                .iter()
                .all(|t| s.tasks.get(t).map(|u| u.state) == Some(TaskState::Completed));
            if done {
                let mut results = HashMap::with_capacity(sinks.len());
                for task in sinks {
                    match s.tasks.get(task).and_then(|u| u.result.clone()) {
                        Some(r) => {
                            results.insert(task.clone(), r);
                        }
                        None => {
                            return Err(WaitError::MissingResult { task: task.clone() });
                        }
                    }
                }
                return Ok(results);
            }
            if s.closed {
                return Err(WaitError::Cancelled);
            }
            let now = Instant::now();
            if now >= deadline {
                let mut snapshot: Vec<(String, TaskState)> =
                    s.tasks.iter().map(|(k, u)| (k.clone(), u.state)).collect();
                snapshot.sort_by(|a, b| a.0.cmp(&b.0));
                return Err(WaitError::Timeout { statuses: snapshot });
            }
            self.changed.wait_for(&mut s, deadline - now);
        }
    }
}

/// The status collector: drains the shared status topic into the board
/// and feeds accepted updates through the run tracker (deriving the
/// typed [`crate::engine::RunEvent`] stream). Fully blocking — woken by
/// deliveries, and by the empty-payload sentinel
/// [`publish_shutdown_sentinel`] emits at shutdown.
pub(crate) fn status_loop(
    board: Arc<StatusBoard>,
    tracker: Arc<RunTracker>,
    sub: Subscription,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        match sub.recv() {
            Ok(msg) => match StatusUpdate::decode(&msg.payload) {
                Some(update) => {
                    if board.record(update.clone()) {
                        tracker.observe(&update);
                    }
                }
                // Undecodable payloads are the shutdown sentinel (or
                // foreign noise on a shared broker; either way, check).
                None => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
            },
            Err(_) => return,
        }
    }
}

/// Wake this run's status collectors so they can observe their shutdown
/// flag. The status topic is run-scoped, so other runs on the same
/// broker never even see the sentinel.
///
/// Teardown joins the collector, so the sentinel has to land: it is
/// retried like every at-most-once request the run cannot do without
/// ([`retry_disconnected`]); a duplicate sentinel is harmless.
pub(crate) fn publish_shutdown_sentinel(broker: &dyn Broker, ns: &TopicNamespace) {
    let _ = retry_disconnected(|| broker.publish(ns.status(), None, bytes::Bytes::new()));
}

/// Run a broker request the run cannot proceed without, again while it
/// fails with `Disconnected`: a remote request whose connection drops
/// under it is at-most-once — it is not replayed — and the retry rides
/// out the redial. Any other error (a daemon that stopped answering)
/// ends the attempts.
pub(crate) fn retry_disconnected<T>(
    mut request: impl FnMut() -> Result<T, MqError>,
) -> Result<T, MqError> {
    let mut result = request();
    for _ in 1..DISCONNECTED_ATTEMPTS {
        if !matches!(result, Err(MqError::Disconnected)) {
            break;
        }
        result = request();
    }
    result
}

/// Bound on [`retry_disconnected`]: far more than any reconnect storm
/// loses in a row, few enough to end against a daemon that accepts
/// connections only to drop them.
const DISCONNECTED_ATTEMPTS: usize = 32;
