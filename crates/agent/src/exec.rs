//! What the [`crate::scheduler::Scheduler`] runs an agent's events
//! with: command execution (one publish batch per dispatch), the status
//! board, and the fold that feeds it ([`StatusFold`]) — which runs on
//! whichever thread delivers a status update, not on a thread of its
//! own.

use crate::core::{Command, Event, SaCore};
use crate::engine::{RunTracker, TaskReport};
use crate::message::StatusUpdate;
use crate::runtime::WaitError;
use bytes::Bytes;
use ginflow_core::{ServiceRegistry, TaskState, Value};
use ginflow_mq::{Broker, MqError, Subscription, TopicNamespace};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
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
    ///
    /// `Send` and `Publish` commands are queued, in command order, and
    /// handed to the broker as **one batch**
    /// ([`Broker::publish_many_nowait`]) at two points: before every
    /// `Invoke` — the `Running` status must be out before a service that
    /// may take minutes starts — and when the dispatch returns. A task
    /// that receives, invokes and completes therefore costs two broker
    /// submissions however many successors it fans out to. Items leave
    /// in command order on the broker's one FIFO, so
    /// [`SaCore`]'s guarantee — a `Completed` enters the status log
    /// before the result message it precedes — holds exactly as if each
    /// command were its own publish.
    pub fn dispatch(&self, core: &mut SaCore, event: Event) -> Result<(), ()> {
        let mut queue: VecDeque<Event> = VecDeque::from([event]);
        let mut batch: Vec<(String, Option<Bytes>, Bytes)> = Vec::new();
        let mut outcome = Ok(());
        while let Some(event) = queue.pop_front() {
            let Ok(commands) = core.handle(event) else {
                // The agent dies; what earlier events of this dispatch
                // produced is its word already and still goes out.
                outcome = Err(());
                break;
            };
            for command in commands {
                match command {
                    Command::Invoke {
                        effect,
                        service,
                        params,
                    } => {
                        self.publish(&mut batch);
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
                        if let Ok(topic) = self.ns.inbox(&to) {
                            batch.push((
                                topic,
                                Some(Bytes::from(to.into_bytes())),
                                message.encode(),
                            ));
                        }
                    }
                    Command::Publish { state, result } => {
                        let update = StatusUpdate {
                            task: self.name.to_owned(),
                            state,
                            result,
                            incarnation: self.incarnation,
                        };
                        batch.push((self.ns.status().to_owned(), None, update.encode()));
                    }
                }
            }
        }
        self.publish(&mut batch);
        outcome
    }

    /// Hand the queued publishes to the broker. Fire-and-forget,
    /// pipelined: nothing here consumes a receipt, and on a remote
    /// broker a blocking round trip would be the whole coordination hot
    /// path. A publish the broker refuses is lost like any message to a
    /// severed connection — the status stream is how anyone would know.
    fn publish(&self, batch: &mut Vec<(String, Option<Bytes>, Bytes)>) {
        if !batch.is_empty() {
            let _ = self.broker.publish_many_nowait(std::mem::take(batch));
        }
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

/// Where a run's status updates are folded: the status topic's
/// subscription, drained into the [`StatusBoard`] and — for accepted
/// updates — through the [`RunTracker`] (deriving the typed
/// [`crate::engine::RunEvent`] stream).
///
/// There is no collector thread. The subscription's waker *is* the
/// fold: whichever thread delivers an update — the publishing worker on
/// an in-process broker, the client reactor over TCP — drains the queue
/// right there, under the schedule-bit protocol the scheduler's slots
/// and the daemon's subscriptions use (`swap(true)` to enter, clear,
/// re-check the backlog). So exactly one thread folds at a time, in
/// queue order, and a delivery that finds the bit set is picked up by
/// the holder's re-check: none is lost, none is reordered. The fold
/// does O(1) work per update, takes no lock it could wait on for long,
/// and never publishes — it cannot stall the thread it borrows.
pub(crate) struct StatusFold {
    sub: Subscription,
    board: Arc<StatusBoard>,
    tracker: Arc<RunTracker>,
    /// The schedule bit: true while some thread is draining `sub`.
    folding: AtomicBool,
}

impl StatusFold {
    /// Start folding `sub` into `board` and `tracker`: arms the waker
    /// (which folds at once whatever a replaying subscription already
    /// holds). The waker owns only a `Weak` — the subscription owns the
    /// slot that owns the closure — and [`StatusFold::disarm`] ends it.
    pub fn arm(sub: Subscription, board: Arc<StatusBoard>, tracker: Arc<RunTracker>) -> Arc<Self> {
        let fold = Arc::new(StatusFold {
            sub,
            board,
            tracker,
            folding: AtomicBool::new(false),
        });
        let weak: Weak<StatusFold> = Arc::downgrade(&fold);
        fold.sub.set_waker(move || {
            if let Some(fold) = weak.upgrade() {
                fold.drain();
            }
        });
        fold
    }

    /// Stop folding (teardown): later deliveries stay in the queue.
    pub fn disarm(&self) {
        self.sub.clear_waker();
    }

    fn drain(&self) {
        while !self.folding.swap(true, Ordering::SeqCst) {
            while let Ok(Some(msg)) = self.sub.try_recv() {
                // Undecodable payloads are foreign noise on a shared
                // broker.
                if let Some(update) = StatusUpdate::decode(&msg.payload) {
                    if self.board.record(update.clone()) {
                        self.tracker.observe(&update);
                    }
                }
            }
            // Clear the bit *before* re-checking: a delivery that raced
            // the drain either landed before the clear (the re-check
            // sees it) or after it (its waker sees the cleared bit and
            // folds it itself).
            self.folding.store(false, Ordering::SeqCst);
            if self.sub.backlog() == 0 {
                break;
            }
        }
    }
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
